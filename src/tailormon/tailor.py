"""Ranking principal axes by the probability of being the most sensitive.

Monte Carlo draws from a change distribution estimate, for every
principal axis of the pre-change correlation matrix, the probability that
its projection is the single most sensitive one. A minimal set of axes
whose probabilities accumulate past a cutoff is then selected for
monitoring; 1 - cutoff bounds the probability of omitting the maximally
sensitive projection for a future change.

The Monte Carlo samples its changes in sequence and scores them in
stacked blocks, one stack per change type; the estimates are bit-for-bit
those of a loop that applies and scores one draw at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .changemodel import (
    CHANGE_TYPES,
    MEAN,
    ChangeDistributionSpec,
    change_sampler,
    post_change_stack,
    projected_means,
    projected_variances,
    sensitivity_stack,
    stack_sizes,
)
from .corrcore import CorrelationMatrix, EigenSystem, eigensystem, raw_dimension
from .errors import DimensionMismatch

PROB_SUM_TOL = 1e-12

# Largest draws * D**2 scored as one block: bounds the memory of the
# stacked change matrices (256 KiB per stack), whatever the draw count.
SCORE_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class ProjectionSelection:
    """A chosen set of principal axes together with ranking diagnostics.

    ``indices`` are 0-based axis positions in descending-eigenvalue order
    (index 0 is the most varying axis, index D-1 the least varying),
    listed in selection order. ``argmax_probs`` and ``mean_sensitivity``
    cover all D axes. ``by_type`` optionally breaks ``argmax_probs`` down
    into per-change-type contributions.
    """

    indices: tuple[int, ...]
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    argmax_probs: np.ndarray
    cutoff: float
    draws: int
    mean_sensitivity: np.ndarray
    by_type: dict | None = field(default=None, compare=False)
    identity: bool = False

    def __post_init__(self):
        probs = np.asarray(self.argmax_probs, dtype=float)
        sens = np.asarray(self.mean_sensitivity, dtype=float)
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=float)
        d = probs.shape[0]
        j = len(self.indices)
        if sens.shape != (d,):
            raise DimensionMismatch("mean_sensitivity must cover all axes")
        if lam.shape != (j,) or vec.shape[1] != j:
            raise DimensionMismatch("eigenpairs must match the selected indices")
        if len(set(self.indices)) != j or any(not 0 <= i < vec.shape[0] for i in self.indices):
            raise DimensionMismatch("selected indices must be unique and in range")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError("argmax probabilities must sum to 1")
        if not 0.0 <= self.cutoff <= 1.0:
            raise ValueError("cutoff must lie in [0, 1]")
        for arr in (probs, sens, lam, vec):
            arr.setflags(write=False)
        object.__setattr__(self, "argmax_probs", probs)
        object.__setattr__(self, "mean_sensitivity", sens)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def n_axes(self) -> int:
        return len(self.indices)


def _as_correlation(base) -> CorrelationMatrix:
    # Covariance matrices without a unit diagonal are rejected by the
    # CorrelationMatrix validator, never silently normalized.
    if isinstance(base, CorrelationMatrix):
        return base
    return CorrelationMatrix(base)


def _argmax_mc(base: CorrelationMatrix, es: EigenSystem, spec, draws, rng, lag):
    """Monte Carlo estimate of each axis's argmax probability.

    For each of ``draws`` sampled changes, the most sensitive projection
    gets one indicator count; the estimates are the normalized counts.
    Also returns the Monte Carlo mean sensitivity of every axis and the
    per-change-type breakdown of both. Ties in the argmax (probability
    zero under continuous change sizes) resolve to the lowest axis index.

    With ``lag > 0``, ``base`` is a lag-extended correlation matrix of
    dimension ``raw_dim * (lag + 1)``; scenarios are sampled on the raw
    streams and duplicated across the stacked blocks.

    The changes are sampled one after another, in the generator order of
    ``sample_change``, in blocks of at most ``SCORE_BLOCK_CELLS / D**2``
    draws. Each block's changes are applied and scored as one stack per
    change type, and the sums then add the block's draws one at a time in
    draw order, so the result does not depend on the block size.
    """
    d = base.dim
    raw = d // (lag + 1)
    # scenarios are sampled against the raw-stream correlation, the first
    # diagonal block of the (extended) matrix; a principal block of a
    # valid correlation matrix is one too
    draw = change_sampler(spec, base.values[:raw, :raw])
    vec = es.vectors
    # mean changes keep the covariance, so their projection variances are
    # the same for every draw
    mean_vars = projected_variances(vec, base.values[None])
    per_block = max(1, SCORE_BLOCK_CELLS // (d * d))

    counts = np.zeros(d)
    type_counts = np.zeros((len(CHANGE_TYPES), d))
    # row 0 sums every draw's sensitivities, row 1 + t those of type t
    sums = np.zeros((1 + len(CHANGE_TYPES), d))
    for start in range(0, draws, per_block):
        n = min(per_block, draws - start)
        batch = [draw(rng) for _ in range(n)]
        types = np.array([t for t, _, _ in batch])
        h = np.empty((n, d))
        for t, ctype in enumerate(CHANGE_TYPES):
            rows = np.flatnonzero(types == t)
            if not rows.size:
                continue
            sizes = stack_sizes(ctype, [batch[r][1:] for r in rows], raw)
            post = post_change_stack(base.values, ctype, sizes)
            if ctype == MEAN:
                h[rows] = sensitivity_stack(es, projected_means(vec, post), mean_vars)
            else:
                h[rows] = sensitivity_stack(es, 0.0, projected_variances(vec, post))
        top = np.argmax(h, axis=1)
        counts += np.bincount(top, minlength=d)
        np.add.at(type_counts, (types, top), 1.0)
        # a cumulative sum adds the draws one at a time, in draw order, as a
        # loop over them would; adding 0.0 leaves the other types' sums as they are
        steps = np.zeros((n + 1,) + sums.shape)
        steps[0] = sums
        steps[1:, 0] = h
        steps[np.arange(1, n + 1), 1 + types] = h
        sums = np.cumsum(steps, axis=0)[-1]
    hsum, type_hsum = sums[0], sums[1:]
    type_draws = type_counts.sum(axis=1)
    breakdown = {
        c: {
            "draws": int(type_draws[t]),
            "argmax_contribution": (type_counts[t] / draws).tolist(),
            "mean_sensitivity": (type_hsum[t] / type_draws[t]).tolist() if type_draws[t] else None,
        }
        for t, c in enumerate(CHANGE_TYPES)
    }
    return counts / draws, hsum / draws, breakdown


def select_axes(argmax_probs, cutoff: float) -> tuple[int, ...]:
    """Minimal axis set whose argmax probabilities accumulate past the cutoff.

    Axes are taken in decreasing probability order, ties broken toward
    the larger (less varying) axis index. A cutoff of 0 returns the
    single top axis so monitoring is never vacuous.
    """
    p = np.asarray(argmax_probs, dtype=float)
    if p.ndim != 1 or np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("argmax_probs must be a probability vector")
    if not 0.0 <= cutoff <= 1.0:
        raise ValueError("cutoff must lie in [0, 1]")
    d = p.shape[0]
    order = np.lexsort((-np.arange(d), -p))
    if cutoff <= 0.0:
        return (int(order[0]),)
    csum = np.cumsum(p[order])
    n = int(np.searchsorted(csum, cutoff - PROB_SUM_TOL) + 1)
    n = min(n, d)
    return tuple(int(i) for i in order[:n])


def tailor(
    base,
    spec: ChangeDistributionSpec,
    cutoff: float,
    draws: int = 10_000,
    rng: np.random.Generator | None = None,
    lag: int = 0,
) -> ProjectionSelection:
    """Select the monitoring axes for a given change distribution.

    Composes the eigensystem, the Monte Carlo argmax-probability
    estimate and the cutoff selection. Deterministic for a fixed
    generator state. The arguments are checked before the first draw.

    With ``lag > 0``, ``base`` is the correlation of the last ``lag + 1``
    raw rows, oldest first; the raw dimension is its dimension over
    ``lag + 1``, which must divide it.
    """
    base = _as_correlation(base)
    # checked before any draw runs; select_axes would only see a bad
    # cutoff after the whole Monte Carlo
    if not 0.0 <= cutoff <= 1.0:
        raise ValueError("cutoff must lie in [0, 1]")
    if draws < 1:
        raise ValueError("draws must be at least 1")
    raw_dimension(base.dim, lag)
    if rng is None:
        rng = np.random.default_rng()
    es = eigensystem(base)
    phat, hbar, breakdown = _argmax_mc(base, es, spec, draws, rng, lag)
    indices = select_axes(phat, cutoff)
    idx = np.asarray(indices, dtype=int)
    return ProjectionSelection(
        indices=indices,
        eigenvalues=es.values[idx],
        eigenvectors=es.vectors[:, idx],
        argmax_probs=phat,
        cutoff=float(cutoff),
        draws=int(draws),
        mean_sensitivity=hbar,
        by_type=breakdown,
    )


def manual_selection(es: EigenSystem, indices) -> ProjectionSelection:
    """Selection of explicitly chosen axes (e.g. the J most/least varying).

    The argmax probabilities of a manual selection carry no ranking
    information and are set uniform over all axes.
    """
    indices = tuple(int(i) for i in indices)
    d = es.dim
    idx = np.asarray(indices, dtype=int)
    return ProjectionSelection(
        indices=indices,
        eigenvalues=es.values[idx],
        eigenvectors=es.vectors[:, idx],
        argmax_probs=np.full(d, 1.0 / d),
        cutoff=0.0,
        draws=0,
        mean_sensitivity=np.zeros(d),
    )


def min_variance_selection(es: EigenSystem, n_axes: int) -> ProjectionSelection:
    """The ``n_axes`` least varying axes (largest indices)."""
    d = es.dim
    return manual_selection(es, range(d - n_axes, d))


def max_variance_selection(es: EigenSystem, n_axes: int) -> ProjectionSelection:
    """The ``n_axes`` most varying axes (smallest indices)."""
    return manual_selection(es, range(n_axes))


def identity_selection(dim: int) -> ProjectionSelection:
    """Identity projection: monitor every standardized raw stream.

    Used by the raw-data mixture baseline; the monitor code path is
    identical to axis monitoring with unit eigenvalues and unit vectors.
    """
    return ProjectionSelection(
        indices=tuple(range(dim)),
        eigenvalues=np.ones(dim),
        eigenvectors=np.eye(dim),
        argmax_probs=np.full(dim, 1.0 / dim),
        cutoff=0.0,
        draws=0,
        mean_sensitivity=np.zeros(dim),
        identity=True,
    )
