"""Correlation and eigensystem core.

Training standardization, eigensystems of correlation matrices, random
correlation generation through a partial-correlation vine, and the
nearest-PD repair. The estimate, the eigensystem and the repair work on
stacks, so the tailoring Monte Carlo repairs a whole block of correlation
changes with stacked eigendecompositions and a calibration re-estimates a
batch of bootstrap replicates at once; a single matrix is the stack of
one. Every validity check is written once, as a per-matrix test over a
stack (``_correlation_faults``, ``_spectrum_faults``,
``_constant_columns``), which the validated types apply to a stack of one;
a failing stack raises the error of its first failing matrix
(``_raise_first``).

Conventions used throughout the package:

* axis/stream indices are 0-based,
* per-column variances use the maximum-likelihood divisor ``m`` (not
  ``m - 1``) so that projection variances match eigenvalues exactly,
* eigenvalues are sorted in non-increasing order and each eigenvector is
  sign-normalized so its largest-magnitude entry is positive (ties broken
  at the lowest index), which makes eigensystems deterministic.
"""

from __future__ import annotations

import math
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
# An eigenvalue at or below this floor counts as zero: for a monitored
# axis, for the base that tailoring scores changes against, and for the
# nearest-PD repair of a post-change matrix.
PD_FLOOR = 1e-8

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
# A draw the repair cannot mend is redrawn from the same generator, up to
# this many draws in all; a draw that repairs comes back as the first did.
# The one-pass repair mended all of 200,000 draws at dim 3, alpha_d 0.05
# (the earlier repair stalled on about 1 in 3000 there), so this is a
# safety net.
_VINE_DRAWS = 100

# The nearest-PD repair aims a repaired matrix's smallest eigenvalue at
# eps * (1 + _FLOOR_MARGIN), so that the rounding of the rebuild and of the
# eigvalsh check does not take it below eps. At eps = 1e-10 that rounding
# reached 2.3e-4 * eps (rank-deficient inputs, D up to 80); a margin of
# 1e-4 left a rank-one input of D = 29 short of eps for three passes.
_FLOOR_MARGIN = 1e-3

# The invariants of a correlation matrix and of an eigensystem, in the
# order they are tested; a fault code indexes these tuples.
_CORRELATION_FAULTS = (
    "entries must be finite",
    "matrix is not symmetric within 1e-10",
    "diagonal entries must be exactly 1",
    "off-diagonal entries must lie strictly inside (-1, 1)",
    "matrix is not strictly positive definite",
)
_NOT_PD = len(_CORRELATION_FAULTS) - 1  # the eigenvalue test runs last
_SPECTRUM_FAULTS = (
    (DegenerateSpectrum, "eigenvalues must be sorted in non-increasing order"),
    (DegenerateCorrelation, "negative eigenvalue in eigensystem"),
    (DegenerateCorrelation, "eigenvectors are not orthonormal within 1e-8"),
    (DegenerateCorrelation, "eigenvalue sum does not match the trace of a correlation matrix"),
)


def raw_dimension(dim: int, lag: int) -> int:
    """The raw dimension of the lag-extended layout of dimension ``dim``.

    A lag-extended vector holds the last ``lag + 1`` raw rows, oldest
    first, so ``lag + 1`` must divide ``dim``; the raw dimension is the
    quotient. A negative lag is a ValueError and a ``lag + 1`` that does
    not divide ``dim`` a DimensionMismatch. Every entry point that takes a
    lag with an extended dimension checks it here.
    """
    if lag < 0:
        raise ValueError("lag must be non-negative")
    raw, rest = divmod(dim, lag + 1)
    if rest:
        raise DimensionMismatch(f"dimension {dim} is not a multiple of lag + 1 = {lag + 1}")
    return raw


def _as_square(values, name: str = "matrix") -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def _fault_codes(tests) -> np.ndarray:
    """Per set of a stack, the position in ``tests`` of the first test it fails, -1 where it fails none.

    ``tests`` holds one boolean array over the sets per test, True where
    the set fails it, in the order the tests run.
    """
    codes = np.full(len(tests[0]), -1)
    for code in reversed(range(len(tests))):
        codes[tests[code]] = code
    return codes


def _raise_first(codes, make) -> None:
    """Raise ``make(code)`` for the first set of a stack with a fault code; return when every code is -1."""
    bad = np.flatnonzero(codes >= 0)
    if bad.size:
        raise make(int(codes[bad[0]]))


def _constant_columns(spread: np.ndarray) -> np.ndarray:
    """Per row of an (n, D) array of column spreads, the column ``ConstantColumn`` names, or -1.

    A row names a column when some spread is at most 0 (a range or a
    standard deviation, so exactly 0): the first smallest one.
    """
    return np.where((spread <= 0.0).any(axis=1), np.argmin(spread, axis=1), -1)


def _correlation_faults(
    w: np.ndarray, smallest: np.ndarray | None = None, entries_checked: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The first correlation-matrix invariant each matrix of an (n, D, D) stack breaks.

    Returns (codes, lam0): codes[i] indexes ``_CORRELATION_FAULTS``, -1
    where matrix i holds every invariant; lam0[i] is its smallest
    eigenvalue, NaN where an entry test already failed, so ``eigvalsh``
    sees only the matrices that pass the cheaper tests. A caller that has
    decomposed the stack already passes each matrix's smallest eigenvalue
    as ``smallest``, and the last test reads it instead. A caller that
    knows every entry finite and the stack symmetric says so with
    ``entries_checked``, and those two tests are not run.
    """
    n, d, _ = w.shape
    if entries_checked:
        tests = [np.zeros(n, dtype=bool)] * 2
    else:
        with np.errstate(invalid="ignore"):  # inf - inf; such a matrix fails the first test
            tests = [
                ~np.isfinite(w).all(axis=(1, 2)),
                np.abs(w - w.transpose(0, 2, 1)).max(axis=(1, 2)) > SYMMETRY_TOL,
            ]
    tests.append((np.diagonal(w, axis1=1, axis2=2) != 1.0).any(axis=1))
    if d > 1:
        tests.append(np.abs(w[:, ~np.eye(d, dtype=bool)]).max(axis=1) >= 1.0)
    codes = _fault_codes(tests)
    lam0 = np.full(n, np.nan)
    cand = np.flatnonzero(codes < 0)
    if cand.size:
        lam0[cand] = np.linalg.eigvalsh(w[cand])[:, 0] if smallest is None else smallest[cand]
        codes[cand[lam0[cand] <= d * _PD_NOISE]] = _NOT_PD
    return codes, lam0


def _correlation_error(code: int) -> DegenerateCorrelation:
    return DegenerateCorrelation(_CORRELATION_FAULTS[code])


def _spectrum_faults(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """The first eigensystem invariant each of a stack of n eigensystems breaks, indexing ``_SPECTRUM_FAULTS``; -1 where none."""
    d = lam.shape[1]
    return _fault_codes([
        (np.diff(lam, axis=1) > 0.0).any(axis=1),
        lam[:, -1] < -1e-10,
        np.abs(np.matmul(vec.transpose(0, 2, 1), vec) - np.eye(d)).max(axis=(1, 2)) > ORTHO_TOL,
        np.abs(lam.sum(axis=1) - d) > 1e-8,
    ])


def _spectrum_error(code: int) -> Exception:
    kind, message = _SPECTRUM_FAULTS[code]
    return kind(message)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric positive definite matrix with unit diagonal.

    Validated on construction: finite entries, symmetry within 1e-10,
    diagonal entries exactly 1, off-diagonal entries strictly inside
    (-1, 1), and smallest eigenvalue strictly positive. The array is
    stored read-only.
    """

    values: np.ndarray

    def __post_init__(self):
        v = _as_square(self.values, "correlation matrix")
        _raise_first(_correlation_faults(v[None])[0], _correlation_error)
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
        _raise_first(_spectrum_faults(lam[None], vec[None]), _spectrum_error)
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
        _raise_first(_constant_columns(sdev[None]), ConstantColumn)
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


def _training_moments(x: np.ndarray):
    """Mean, sdev and correlation of every training set of an (n, m, D) stack.

    The arithmetic of ``estimate_training``, bit for bit per set; x is
    centred in place. Raises the error of the first set that holds a
    non-finite value, then of the first whose values are too large, then
    of the first with a constant column. The correlations are not yet
    checked (``_correlation_faults``).

    Too large means that 4 * m * a * a overflows, a the largest magnitude
    of the set: every sum the estimate forms stays below that (a centred
    value is at most 2a), so a set that passes overflows nowhere. A
    finite value such as 1e200 fails, as it fails ``Monitor.step``.
    """
    _, m, d = x.shape
    if m < 2:
        raise DimensionMismatch("training data needs at least 2 rows")
    nonfinite = ~np.isfinite(x).all(axis=(1, 2))
    _raise_first(_fault_codes([nonfinite]), lambda _: ValueError("training data contain a non-finite value"))
    hi, lo = x.max(axis=1), x.min(axis=1)
    with np.errstate(over="ignore"):
        a = np.maximum(hi, -lo).max(axis=1)
        too_large = ~(a * a * (4.0 * m) < math.inf)
    _raise_first(_fault_codes([too_large]),
                 lambda _: ValueError("training data contain values too large: their sums of squares overflow"))
    _raise_first(_constant_columns(hi - lo), ConstantColumn)
    mean = x.mean(axis=1)
    x -= mean[:, None, :]
    sdev = np.sqrt((x * x).mean(axis=1))
    _raise_first(_constant_columns(sdev), ConstantColumn)
    u = x / sdev[:, None, :]
    corr = np.matmul(u.transpose(0, 2, 1), u) / m
    corr = (corr + corr.transpose(0, 2, 1)) / 2.0
    diag = np.arange(d)
    corr[:, diag, diag] = 1.0
    return mean, sdev, corr


def estimate_training(data) -> TrainingSummary:
    """Estimate per-column mean, sdev and the Pearson correlation matrix.

    The one-set case of the stacked estimate a calibration runs on a
    batch of bootstrap replicates, with the same checks in the same order.

    Parameters
    ----------
    data : (m, D) array
        Training observations, one row per time step.

    Raises
    ------
    ValueError
        If the data hold a non-finite value, or values whose sums of
        squares would overflow.
    ConstantColumn
        If a column has zero spread.
    DegenerateCorrelation
        If the sample correlation fails the positive-definiteness check,
        e.g. when two columns are perfectly collinear or m < D.
    """
    x = np.array(data, dtype=float)  # a copy: the estimate centres it in place
    if x.ndim != 2:
        raise DimensionMismatch(f"training data must be 2-d, got shape {x.shape}")
    mean, sdev, corr = _training_moments(x[None])
    return TrainingSummary(mean=mean[0], sdev=sdev[0], corr=CorrelationMatrix(corr[0]), m=x.shape[0])


def _eigen_stack(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, sign-normalized eigenvalues (n, D) and eigenvectors (n, D, D) of an (n, D, D) stack.

    The arithmetic of ``eigensystem``, bit for bit per matrix. The
    eigensystems are not yet checked (``_spectrum_faults``).
    """
    lam, vec = np.linalg.eigh(w)
    lam = lam[:, ::-1].copy()
    vec = vec[:, :, ::-1].copy()
    # np.argmax returns the first occurrence, which implements the
    # lowest-index tie break of the sign convention.
    anchor = np.argmax(np.abs(vec), axis=1)
    signs = np.sign(np.take_along_axis(vec, anchor[:, None, :], axis=1))
    signs[signs == 0.0] = 1.0
    vec *= signs
    return lam, vec


def eigensystem(corr: CorrelationMatrix) -> EigenSystem:
    """Sorted, sign-normalized eigensystem of a correlation matrix.

    The one-matrix case of the stacked eigensystem a calibration computes
    for a batch of bootstrap replicates.
    """
    lam, vec = _eigen_stack(corr.values[None])
    return EigenSystem(values=lam[0], vectors=vec[0])


def _dvine_correlation(pcs: np.ndarray) -> np.ndarray:
    """Correlation matrix from D-vine partial correlations.

    ``pcs[i, j]`` (i < j) holds the partial correlation of variables i and
    j given the variables strictly between them. Pairs are solved in
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
    large ``alpha_d`` concentrates near the identity. A draw the repair
    cannot make positive definite is redrawn, at most ``_VINE_DRAWS``
    draws in all, after which ``NoConvergence`` is raised.

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
    for _ in range(_VINE_DRAWS):
        pcs = np.zeros((dim, dim))
        for lag in range(1, dim):
            b = alpha_d + (dim - 1 - lag) / 2.0
            u = rng.beta(b, b, size=dim - lag)
            i = np.arange(dim - lag)
            pcs[i, i + lag] = np.clip(2.0 * u - 1.0, -_PC_BOUND, _PC_BOUND)
        try:
            return nearest_pd_correlation(_dvine_correlation(pcs), eps=_EIG_SAFEGUARD)
        except NoConvergence:
            pass
    raise NoConvergence(f"no vine draw of {_VINE_DRAWS} could be repaired")


def nearest_pd_correlation(sym, eps: float = 1e-8, max_iter: int = 100) -> CorrelationMatrix:
    """Repair a symmetric matrix into a valid correlation matrix.

    Eigenvalues are clipped at a floor just high enough that, once the
    diagonal is renormalized to 1, the smallest eigenvalue is still at
    least ``eps``; a pass that rounding leaves short is repeated, up to
    ``max_iter`` passes in all. Inputs that already
    satisfy every correlation-matrix invariant with smallest eigenvalue
    at least ``eps`` are returned unchanged, which makes the repair
    idempotent. This is the one-matrix case of ``nearest_pd_stack``.
    """
    a = _as_square(sym, "input")
    return CorrelationMatrix(nearest_pd_stack(a[None], eps, max_iter)[0])


def _valid_stack(w: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Which matrices of a finite, symmetric stack are repaired, and their ``_correlation_faults`` codes.

    Repaired means unit diagonal, off-diagonal entries strictly inside
    (-1, 1) and smallest eigenvalue at least ``eps``. The stack's
    entries are not tested: ``nearest_pd_stack`` tests the whole input
    for finiteness and symmetry before its first pass, and each pass
    rebuilds a finite, exactly symmetric matrix.
    """
    codes, lam0 = _correlation_faults(w, entries_checked=True)
    # lam0 is NaN, and so fails the floor, where an entry test failed
    return lam0 >= eps, codes


def _repair_floor(lam: np.ndarray, vec: np.ndarray, c: float) -> np.ndarray:
    """Per eigensystem of a stack, (n, D) values and (n, D, D) vectors, the eigenvalue floor of one repair pass.

    A pass clips the eigenvalues of a matrix at a floor f and rescales it
    to a unit diagonal. Write R(f) = V max(L, f) V'. The rescaled matrix
    S^-1 R(f) S^-1, S = diag(R(f))^1/2, has smallest eigenvalue at least
    f / max_i R_ii(f), as R(f) - f I is positive semidefinite. R_ii grows
    with f, so f = c * max_i R_ii(g) leaves it at least c for any g >= f.
    Take g = 2c * M with M = max(max_i R_ii(0), 1). The rows of V are unit
    vectors, so R_ii(g) <= R_ii(0) + g, and f <= c * M * (1 + 2c) <= g
    whenever c <= 1/2. For a unit-diagonal input A, R_ii(0) >= 1 already
    (R(0) - A is positive semidefinite), so the maximum with 1 changes
    nothing there; it keeps g, and so f, positive for an input with no
    positive eigenvalue, such as the zero matrix.

    The diagonals are sums over the rows of V * V, so a matrix gets the
    same floor alone as in a stack.
    """
    sq = vec * vec

    def max_diagonal(floor):
        return (sq * np.maximum(lam, floor[:, None])[:, None, :]).sum(axis=2).max(axis=1)

    g = 2.0 * c * np.maximum(max_diagonal(np.zeros(len(lam))), 1.0)
    return c * max_diagonal(g)


def nearest_pd_stack(stack, eps: float = 1e-8, max_iter: int = 100) -> np.ndarray:
    """Repair every matrix of an (n, D, D) stack into a valid correlation matrix.

    Each matrix goes through exactly the passes ``nearest_pd_correlation``
    would give it alone: matrices that are already valid come back
    unchanged, and the others are repaired together, with stacked
    eigendecompositions over the subset that is still invalid. One pass
    mends every matrix for ``eps`` up to about 1/2 (``_repair_floor``);
    further passes only catch rounding. The result also passes the
    ``CorrelationMatrix`` invariants.

    Raises
    ------
    DegenerateCorrelation
        If an entry is not finite ("entries must be finite"), before any
        other test.
    NoConvergence
        If some matrix is still invalid after ``max_iter`` passes.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    a = np.asarray(stack, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"stack must have shape (n, D, D), got {a.shape}")
    if not np.isfinite(a).all():
        # NaN passes the symmetry test and inf makes it warn; no repair makes either finite
        raise _correlation_error(0)
    d = a.shape[1]
    at = a.transpose(0, 2, 1)
    if np.abs(a - at).max() > SYMMETRY_TOL:
        raise DimensionMismatch("input must be symmetric")
    out = a.copy()
    ok, codes = _valid_stack(a, eps)
    todo = np.flatnonzero(~ok)
    if todo.size:
        # one pass leaves each matrix's smallest eigenvalue at least c in
        # exact arithmetic (``_repair_floor``); the margin above eps covers
        # the rounding of the rebuild and of the eigvalsh check, and the
        # pass loop catches what it does not
        c = eps * (1.0 + _FLOOR_MARGIN)
        diag = np.arange(d)
        work = (a[todo] + at[todo]) / 2.0
        for _ in range(max_iter):
            lam, vec = np.linalg.eigh(work)
            lam = np.maximum(lam, _repair_floor(lam, vec, c)[:, None])
            work = np.matmul(vec * lam[:, None, :], vec.transpose(0, 2, 1))
            scale = np.sqrt(work[:, diag, diag])
            work = work / (scale[:, :, None] * scale[:, None, :])
            work = (work + work.transpose(0, 2, 1)) / 2.0
            work[:, diag, diag] = 1.0
            done, codes_done = _valid_stack(work, eps)
            out[todo[done]] = work[done]
            codes[todo[done]] = codes_done[done]
            todo, work = todo[~done], work[~done]
            if not todo.size:
                break
        else:
            raise NoConvergence(f"nearest-PD repair did not converge in {max_iter} passes")
    # a repaired matrix can still sit below the CorrelationMatrix
    # positive-definiteness floor when eps does
    _raise_first(codes, _correlation_error)
    return out
