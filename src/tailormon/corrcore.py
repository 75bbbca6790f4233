"""Correlation and eigensystem core.

Training standardization, eigensystems of correlation matrices, random
correlation generation through a partial-correlation vine, and the
nearest-PD repair. The repair works on stacks of matrices, so the
tailoring Monte Carlo repairs a whole block of correlation changes with
stacked eigendecompositions; a single matrix is the stack of one.

Conventions used throughout the package:

* axis/stream indices are 0-based,
* per-column variances use the maximum-likelihood divisor ``m`` (not
  ``m - 1``) so that projection variances match eigenvalues exactly,
* eigenvalues are sorted in non-increasing order and each eigenvector is
  sign-normalized so its largest-magnitude entry is positive (ties broken
  at the lowest index), which makes eigensystems deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConstantColumn,
    DegenerateCorrelation,
    DegenerateSpectrum,
    DimensionMismatch,
    NoConvergence,
)

SYMMETRY_TOL = 1e-10
ORTHO_TOL = 1e-8

# Positive definiteness must hold beyond eigensolver noise: computed
# eigenvalues of a D-dim matrix carry O(D * eps * ||A||) error, so smaller
# minima cannot be certified as positive.
_PD_NOISE = 1e-14

# Partial correlations are kept strictly inside (-1, 1); small alpha_d
# concentrates Beta draws so close to +-1 that unclipped draws round to
# singular matrices. Draws that are still essentially singular after
# clipping (smallest eigenvalue below _EIG_SAFEGUARD, the double-precision
# noise scale of eigh) are nudged back to that floor.
_PC_BOUND = 1.0 - 1e-6
_EIG_SAFEGUARD = 1e-10


def _as_square(values, name: str = "matrix") -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric positive definite matrix with unit diagonal.

    Validated on construction: symmetry within 1e-10, diagonal entries
    exactly 1, off-diagonal entries strictly inside (-1, 1), and smallest
    eigenvalue strictly positive. The array is stored read-only.
    """

    values: np.ndarray

    def __post_init__(self):
        v = _as_square(self.values, "correlation matrix")
        if np.abs(v - v.T).max() > SYMMETRY_TOL:
            raise DegenerateCorrelation("matrix is not symmetric within 1e-10")
        if np.any(np.diag(v) != 1.0):
            raise DegenerateCorrelation("diagonal entries must be exactly 1")
        off = v[~np.eye(v.shape[0], dtype=bool)]
        if off.size and np.abs(off).max() >= 1.0:
            raise DegenerateCorrelation("off-diagonal entries must lie strictly inside (-1, 1)")
        if np.linalg.eigvalsh(v)[0] <= v.shape[0] * _PD_NOISE:
            raise DegenerateCorrelation("matrix is not strictly positive definite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (non-increasing) and orthonormal eigenvector columns.

    Produced from correlation matrices, so the eigenvalues sum to the
    dimension. Sign convention: each column's largest-magnitude entry is
    positive.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.values, dtype=float)
        vec = np.asarray(self.vectors, dtype=float)
        d = lam.shape[0]
        if lam.ndim != 1 or vec.shape != (d, d):
            raise DimensionMismatch("eigenvalues and eigenvectors have inconsistent shapes")
        if np.any(np.diff(lam) > 0.0):
            raise DegenerateSpectrum("eigenvalues must be sorted in non-increasing order")
        if lam[-1] < -1e-10:
            raise DegenerateCorrelation("negative eigenvalue in eigensystem")
        if np.abs(vec.T @ vec - np.eye(d)).max() > ORTHO_TOL:
            raise DegenerateCorrelation("eigenvectors are not orthonormal within 1e-8")
        if abs(lam.sum() - d) > 1e-8:
            raise DegenerateCorrelation("eigenvalue sum does not match the trace of a correlation matrix")
        lam = lam.copy()
        vec = vec.copy()
        lam.setflags(write=False)
        vec.setflags(write=False)
        object.__setattr__(self, "values", lam)
        object.__setattr__(self, "vectors", vec)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class TrainingSummary:
    """Per-column mean and standard deviation plus the sample correlation.

    ``sdev`` uses the maximum-likelihood divisor ``m``. This matches the
    divisor used by the monitoring statistic's segment variances, and it
    makes the sample variance of each standardized projection equal its
    eigenvalue exactly.
    """

    mean: np.ndarray
    sdev: np.ndarray
    corr: CorrelationMatrix
    m: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        sdev = np.asarray(self.sdev, dtype=float)
        d = self.corr.dim
        if mean.shape != (d,) or sdev.shape != (d,):
            raise DimensionMismatch("mean/sdev shapes do not match the correlation dimension")
        if self.m < 2:
            raise DimensionMismatch("training summary needs m >= 2")
        if np.any(sdev <= 0.0):
            raise ConstantColumn(int(np.argmin(sdev)))
        mean = mean.copy()
        sdev = sdev.copy()
        mean.setflags(write=False)
        sdev.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sdev", sdev)

    @property
    def dim(self) -> int:
        return self.corr.dim

    def covariance(self) -> np.ndarray:
        """Reconstructed covariance S0 * corr * S0."""
        return self.corr.values * np.outer(self.sdev, self.sdev)


def estimate_training(data) -> TrainingSummary:
    """Estimate per-column mean, sdev and the Pearson correlation matrix.

    Parameters
    ----------
    data : (m, D) array
        Training observations, one row per time step.

    Raises
    ------
    ConstantColumn
        If a column has zero spread.
    DegenerateCorrelation
        If the sample correlation fails the positive-definiteness check,
        e.g. when two columns are perfectly collinear or m < D.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch(f"training data must be 2-d, got shape {x.shape}")
    m, d = x.shape
    if m < 2:
        raise DimensionMismatch("training data needs at least 2 rows")
    spread = x.max(axis=0) - x.min(axis=0)
    if np.any(spread == 0.0):
        raise ConstantColumn(int(np.argmin(spread)))
    mean = x.mean(axis=0)
    centered = x - mean
    sdev = np.sqrt((centered * centered).mean(axis=0))
    if np.any(sdev == 0.0):
        raise ConstantColumn(int(np.argmin(sdev)))
    u = centered / sdev
    corr = (u.T @ u) / m
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return TrainingSummary(mean=mean, sdev=sdev, corr=CorrelationMatrix(corr), m=m)


def eigensystem(corr: CorrelationMatrix) -> EigenSystem:
    """Sorted, sign-normalized eigensystem of a correlation matrix."""
    lam, vec = np.linalg.eigh(corr.values)
    lam = lam[::-1].copy()
    vec = vec[:, ::-1].copy()
    # np.argmax returns the first occurrence, which implements the
    # lowest-index tie break of the sign convention.
    anchor = np.argmax(np.abs(vec), axis=0)
    signs = np.sign(vec[anchor, np.arange(vec.shape[1])])
    signs[signs == 0.0] = 1.0
    vec *= signs
    return EigenSystem(values=lam, vectors=vec)


def _dvine_correlation(pcs: np.ndarray) -> np.ndarray:
    """Correlation matrix from D-vine partial correlations.

    ``pcs[i, j]`` (i < j) holds the partial correlation of variables i and
    j given the variables strictly between them. Pairs are filled in
    increasing lag order; each unconditional correlation follows from the
    partial-correlation identity with the conditioning block solved as a
    batched linear system.
    """
    d = pcs.shape[0]
    r = np.eye(d)
    if d >= 2:
        i = np.arange(d - 1)
        r[i, i + 1] = r[i + 1, i] = pcs[i, i + 1]
    for lag in range(2, d):
        i = np.arange(d - lag)
        blocks = sliding_window_view(r, (lag - 1, lag - 1))[i + 1, i + 1]
        rows = sliding_window_view(r, lag - 1, axis=1)
        ri = rows[i, i + 1]
        rj = rows[i + lag, i + 1]
        sols = np.linalg.solve(blocks, np.stack([ri, rj], axis=-1))
        qi = np.einsum("nk,nk->n", ri, sols[..., 0])
        qj = np.einsum("nk,nk->n", rj, sols[..., 1])
        cross = np.einsum("nk,nk->n", ri, sols[..., 1])
        val = pcs[i, i + lag] * np.sqrt((1.0 - qi) * (1.0 - qj)) + cross
        r[i, i + lag] = val
        r[i + lag, i] = val
    return r


def random_correlation(dim: int, alpha_d: float, rng: np.random.Generator) -> CorrelationMatrix:
    """Draw a random correlation matrix from a partial-correlation D-vine.

    Partial correlations at vine level ``k`` are sampled as
    ``2 * Beta(b_k, b_k) - 1`` with ``b_k = alpha_d + (dim - 1 - k) / 2``,
    so the matrix density is proportional to ``det(R) ** (alpha_d - 1)``.
    Small ``alpha_d`` concentrates mass on strongly correlated matrices,
    large ``alpha_d`` concentrates near the identity.

    Parameters
    ----------
    dim : int
        Dimension, at least 2.
    alpha_d : float
        Positive concentration parameter.
    rng : numpy.random.Generator
        Seeded generator; the draw is a pure function of its state.
    """
    if dim < 2:
        raise DimensionMismatch("random correlation needs dim >= 2")
    if alpha_d <= 0.0:
        raise ValueError("alpha_d must be positive")
    pcs = np.zeros((dim, dim))
    for lag in range(1, dim):
        b = alpha_d + (dim - 1 - lag) / 2.0
        u = rng.beta(b, b, size=dim - lag)
        i = np.arange(dim - lag)
        pcs[i, i + lag] = np.clip(2.0 * u - 1.0, -_PC_BOUND, _PC_BOUND)
    r = _dvine_correlation(pcs)
    if np.linalg.eigvalsh(r)[0] < _EIG_SAFEGUARD:
        return nearest_pd_correlation(r, eps=_EIG_SAFEGUARD)
    return CorrelationMatrix(r)


def nearest_pd_correlation(sym, eps: float = 1e-8, max_iter: int = 100) -> CorrelationMatrix:
    """Repair a symmetric matrix into a valid correlation matrix.

    Eigenvalues are clipped to a floor of ``eps`` and the diagonal is
    renormalized to 1, alternating until both hold. Inputs that already
    satisfy every correlation-matrix invariant with smallest eigenvalue
    at least ``eps`` are returned unchanged, which makes the repair
    idempotent. This is the one-matrix case of ``nearest_pd_stack``.
    """
    a = _as_square(sym, "input")
    return CorrelationMatrix(nearest_pd_stack(a[None], eps, max_iter)[0])


def _valid_stack(w: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a stack are valid correlation matrices, and their
    smallest eigenvalues (NaN where the cheaper checks already failed).

    Valid means unit diagonal, off-diagonal entries strictly inside
    (-1, 1) and smallest eigenvalue at least ``eps``.
    """
    n, d, _ = w.shape
    ok = (np.diagonal(w, axis1=1, axis2=2) == 1.0).all(axis=1)
    if d > 1:
        off = w[:, ~np.eye(d, dtype=bool)]
        ok &= ~(np.abs(off).max(axis=1) >= 1.0)
    lam0 = np.full(n, np.nan)
    cand = np.flatnonzero(ok)
    if cand.size:
        lam0[cand] = np.linalg.eigvalsh(w[cand])[:, 0]
        ok[cand] = lam0[cand] >= eps
    return ok, lam0


def nearest_pd_stack(stack, eps: float = 1e-8, max_iter: int = 100) -> np.ndarray:
    """Repair every matrix of an (n, D, D) stack into a valid correlation matrix.

    Each matrix goes through exactly the iterations ``nearest_pd_correlation``
    would give it alone: matrices that are already valid come back
    unchanged, and the others are repaired together, with stacked
    eigendecompositions over the shrinking subset that is still invalid.
    The result also passes the ``CorrelationMatrix`` invariants.

    Raises
    ------
    NoConvergence
        If some matrix is still invalid after ``max_iter`` iterations.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"stack must have shape (n, D, D), got {a.shape}")
    d = a.shape[1]
    at = a.transpose(0, 2, 1)
    if np.abs(a - at).max() > SYMMETRY_TOL:
        raise DimensionMismatch("input must be symmetric")
    out = a.copy()
    ok, lam0 = _valid_stack(a, eps)
    todo = np.flatnonzero(~ok)
    if todo.size:
        # Clip slightly above eps: diagonal renormalization shrinks the
        # smallest eigenvalue by an O(eps) relative amount.
        floor = eps * (1.0 + 1e-6)
        diag = np.arange(d)
        work = (a[todo] + at[todo]) / 2.0
        for _ in range(max_iter):
            lam, vec = np.linalg.eigh(work)
            lam = np.maximum(lam, floor)
            work = np.matmul(vec * lam[:, None, :], vec.transpose(0, 2, 1))
            scale = np.sqrt(work[:, diag, diag])
            work = work / (scale[:, :, None] * scale[:, None, :])
            work = (work + work.transpose(0, 2, 1)) / 2.0
            work[:, diag, diag] = 1.0
            done, lam_done = _valid_stack(work, eps)
            out[todo[done]] = work[done]
            lam0[todo[done]] = lam_done[done]
            todo, work = todo[~done], work[~done]
            if not todo.size:
                break
        else:
            raise NoConvergence(f"nearest-PD repair did not converge in {max_iter} iterations")
    # the CorrelationMatrix positive-definiteness floor, on the eigenvalues
    # the validity check already computed
    if np.any(lam0 <= d * _PD_NOISE):
        raise DegenerateCorrelation("matrix is not strictly positive definite")
    return out
