"""Per-matrix reference of the nearest-PD repair, written out one matrix at a time.

``corrcore.nearest_pd_stack`` repairs a stack with stacked
eigendecompositions; this is the same arithmetic for one matrix in plain
2-d numpy, so tests can demand the library's bits from it.

One pass clips the eigenvalues at a floor f and rescales to a unit
diagonal. With c = eps * (1 + _FLOOR_MARGIN) and R(f) = V max(L, f) V', the
floor is f = c * max_i R_ii(g) with g = 2c * max(max_i R_ii(0), 1),
which leaves the rescaled matrix with smallest eigenvalue at least c for
any c <= 1/2, up to rounding (the argument is in ``corrcore._repair_floor``).
"""

import numpy as np

from tailormon import CorrelationMatrix, NoConvergence
from tailormon.corrcore import _FLOOR_MARGIN


def is_repaired(w, eps):
    """Unit diagonal, off-diagonal entries inside (-1, 1) and eigvalsh's smallest eigenvalue at least eps."""
    if np.any(np.diag(w) != 1.0):
        return False
    off = w[~np.eye(w.shape[0], dtype=bool)]
    if off.size and np.abs(off).max() >= 1.0:
        return False
    return np.linalg.eigvalsh(w)[0] >= eps


def rebuilt_diagonal(vec, lam, floor):
    """The diagonal of V max(lam, floor) V'."""
    return (vec * vec * np.maximum(lam, floor)).sum(axis=1)


def repair_floor(lam, vec, eps):
    """The eigenvalue floor of one pass on the eigensystem (lam, vec)."""
    c = eps * (1.0 + _FLOOR_MARGIN)
    g = 2.0 * c * max(rebuilt_diagonal(vec, lam, 0.0).max(), 1.0)
    return c * rebuilt_diagonal(vec, lam, g).max()


def repair_pass(work, eps):
    """One clip-and-rescale pass on a symmetric matrix."""
    lam, vec = np.linalg.eigh(work)
    lam = np.maximum(lam, repair_floor(lam, vec, eps))
    work = (vec * lam) @ vec.T
    scale = np.sqrt(np.diag(work))
    work = work / np.outer(scale, scale)
    work = (work + work.T) / 2.0
    np.fill_diagonal(work, 1.0)
    return work


def ref_nearest_pd(a, eps, max_iter=100):
    """The repaired matrix and the number of passes it took (0 for a valid input)."""
    if is_repaired(a, eps):
        return CorrelationMatrix(a), 0
    work = (a + a.T) / 2.0
    for passes in range(1, max_iter + 1):
        work = repair_pass(work, eps)
        if is_repaired(work, eps):
            return CorrelationMatrix(work), passes
    raise NoConvergence("repair")
