"""Change distributions, post-change parameters and projection sensitivities.

A change scenario picks one change type (mean, variance or correlation),
a sparsity ``K``, a uniformly drawn affected index set and per-component
change sizes. Applying a scenario to a pre-change correlation matrix
yields explicit post-change parameters ``(mu1, Sigma1)``; the sensitivity
of a principal-axis projection is the Hellinger distance between its
marginal distribution before and after that change.

Scenarios are sampled one at a time (``change_sampler``), in a fixed
generator order. Applying and scoring work on stacks of changes of one
type (``post_change_stack``, ``sensitivity_stack``), so the tailoring
Monte Carlo handles a block of draws per numpy call; ``apply_change``,
``apply_change_lagged`` and ``projection_sensitivities`` are their
one-scenario cases and give the same bits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .corrcore import PD_FLOOR, CorrelationMatrix, EigenSystem, nearest_pd_stack, raw_dimension
from .errors import DimensionMismatch, NoConvergence, ZeroEigenvalue

MEAN = "mean"
VARIANCE = "variance"
CORRELATION = "correlation"
CHANGE_TYPES = (MEAN, VARIANCE, CORRELATION)

_MAX_REDRAWS = 100


def _hellinger_arrays(m1, s1, m2, s2):
    s1 = np.asarray(s1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    ssum = s1 * s1 + s2 * s2
    bc = np.sqrt(2.0 * s1 * s2 / ssum) * np.exp(-0.25 * np.square(np.asarray(m1) - np.asarray(m2)) / ssum)
    # rounding can push 1 - bc to -1e-17 when p ~ q
    return np.sqrt(np.maximum(1.0 - bc, 0.0))


@dataclass(frozen=True)
class ChangeDistributionSpec:
    """Distribution over change scenarios.

    ``sparsity_max`` of ``None`` resolves to ``D // 2`` for the matrix the
    spec is sampled against. ``sdev_ranges`` holds the decrease and
    increase intervals of the half/half mixture for standard-deviation
    factors. With ``equal_across_dims`` one shared size is drawn per
    scenario instead of iid sizes per affected component.
    """

    type_probs: tuple[float, float, float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    sparsity_max: int | None = None
    mean_range: tuple[float, float] = (-1.5, 1.5)
    sdev_ranges: tuple[tuple[float, float], tuple[float, float]] = ((1.0 / 2.5, 1.0), (1.0, 2.5))
    corr_factor_range: tuple[float, float] = (0.0, 1.0)
    equal_across_dims: bool = False

    def __post_init__(self):
        p = np.asarray(self.type_probs, dtype=float)
        if p.shape != (3,) or np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("type_probs must be three non-negative numbers summing to 1")
        if self.sparsity_max is not None and self.sparsity_max < 1:
            raise ValueError("sparsity_max must be at least 1")
        for lo, hi in (self.mean_range, *self.sdev_ranges, self.corr_factor_range):
            if not lo <= hi:
                raise ValueError("interval bounds must satisfy lo <= hi")
        for lo, _ in self.sdev_ranges:
            if lo <= 0.0:
                raise ValueError("sdev intervals must be strictly positive")

    def to_dict(self) -> dict:
        return {
            "type_probs": list(self.type_probs),
            "sparsity_max": self.sparsity_max,
            "mean_range": list(self.mean_range),
            "sdev_ranges": [list(r) for r in self.sdev_ranges],
            "corr_factor_range": list(self.corr_factor_range),
            "equal_across_dims": self.equal_across_dims,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ChangeDistributionSpec":
        kwargs = {}
        if "type_probs" in doc:
            kwargs["type_probs"] = tuple(float(x) for x in doc["type_probs"])
        if "sparsity_max" in doc and doc["sparsity_max"] is not None:
            kwargs["sparsity_max"] = int(doc["sparsity_max"])
        if "mean_range" in doc:
            kwargs["mean_range"] = tuple(float(x) for x in doc["mean_range"])
        if "sdev_ranges" in doc:
            lo, hi = doc["sdev_ranges"]
            kwargs["sdev_ranges"] = (tuple(float(x) for x in lo), tuple(float(x) for x in hi))
        if "corr_factor_range" in doc:
            kwargs["corr_factor_range"] = tuple(float(x) for x in doc["corr_factor_range"])
        if "equal_across_dims" in doc:
            kwargs["equal_across_dims"] = bool(doc["equal_across_dims"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ChangeScenario:
    """One sampled post-change specification.

    Only the size field matching ``ctype`` is populated: ``mean_sizes``
    for mean changes, ``sdev_factors`` for variance changes, and
    ``corr_factors`` (keyed by affected index pairs d < i) for
    correlation changes.
    """

    ctype: str
    affected: tuple[int, ...]
    mean_sizes: tuple[float, ...] | None = None
    sdev_factors: tuple[float, ...] | None = None
    corr_factors: dict[tuple[int, int], float] | None = field(default=None)

    def __post_init__(self):
        if self.ctype not in CHANGE_TYPES:
            raise ValueError(f"unknown change type {self.ctype!r}")
        if len(self.affected) < 1:
            raise ValueError("affected set must be non-empty")
        if tuple(sorted(set(self.affected))) != tuple(self.affected):
            raise ValueError("affected must be sorted and duplicate-free")
        populated = {
            MEAN: self.mean_sizes is not None,
            VARIANCE: self.sdev_factors is not None,
            CORRELATION: self.corr_factors is not None,
        }
        for ctype, has in populated.items():
            if (ctype == self.ctype) != has:
                raise ValueError("exactly the size field of the sampled change type must be set")
        if self.corr_factors is not None:
            members = set(self.affected)
            if any(not (p < q and p in members and q in members) for p, q in self.corr_factors):
                raise ValueError("correlation factors must be keyed by affected pairs (p, q) with p < q")

    @property
    def sparsity(self) -> int:
        return len(self.affected)


@dataclass(frozen=True)
class PostChangeParams:
    """Explicit post-change mean vector and covariance matrix.

    Positive definiteness is guaranteed by the construction paths
    (congruence transforms of a valid correlation matrix, or the PD
    repair), so it is not re-checked here.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or mean.shape != (cov.shape[0],):
            raise DimensionMismatch("post-change mean/cov shapes are inconsistent")
        mean = mean.copy()
        cov = cov.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _draw_sdev_factors(spec: ChangeDistributionSpec, bounds: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    # bounds is np.asarray(spec.sdev_ranges), built once per sampler
    if spec.equal_across_dims:
        lo, hi = spec.sdev_ranges[int(rng.integers(0, 2))]
        return np.full(k, rng.uniform(lo, hi))
    which = rng.integers(0, 2, size=k)
    return rng.uniform(bounds[which, 0], bounds[which, 1])


@lru_cache(maxsize=None)
def _pair_index(k: int) -> tuple[np.ndarray, np.ndarray]:
    # positions of the pairs of a sorted k-set in itertools.combinations
    # order; read-only, since every caller shares the cached arrays
    iu, ju = np.triu_indices(k, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _draw_corr_factors(
    spec: ChangeDistributionSpec, base_vals: np.ndarray, aff: np.ndarray, rng: np.random.Generator, redraws: bool
) -> np.ndarray:
    """The factors of the affected pairs; ``redraws`` is False when no factor can scale a correlation out of (-1, 1)."""
    iu, ju = _pair_index(aff.size)
    lo, hi = spec.corr_factor_range
    if not redraws:
        if spec.equal_across_dims:
            return np.full(iu.size, rng.uniform(lo, hi))
        return rng.uniform(lo, hi, size=iu.size)
    rho = base_vals[aff[iu], aff[ju]]
    if spec.equal_across_dims:
        for _ in range(_MAX_REDRAWS):
            a = float(rng.uniform(lo, hi))
            if (np.abs(a * rho) < 1.0).all():
                return np.full(rho.size, a)
        raise NoConvergence("could not draw an admissible shared correlation factor in 100 tries")
    if not rho.size:
        return rho
    # One call draws the same values as one scalar call per pair. When a
    # pair needs a redraw, the generator is rewound and the pairs are
    # drawn one at a time, so the redraws consume the stream in order.
    state = rng.bit_generator.state
    factors = rng.uniform(lo, hi, size=rho.size)
    if (np.abs(factors * rho) < 1.0).all():
        return factors
    rng.bit_generator.state = state
    for i, r in enumerate(rho):
        for _ in range(_MAX_REDRAWS):
            a = float(rng.uniform(lo, hi))
            if abs(a * r) < 1.0:
                factors[i] = a
                break
        else:
            p, q = aff[iu[i]], aff[ju[i]]
            raise NoConvergence(f"could not draw an admissible correlation factor for pair ({p}, {q}) in 100 tries")
    return factors


def change_sampler(spec: ChangeDistributionSpec, base_vals: np.ndarray):
    """Per-draw sampler of ``spec`` against a correlation matrix's values.

    The returned ``draw(rng)`` gives one scenario as ``(type index,
    affected, sizes)``: the draws of ``sample_change`` without building a
    ``ChangeScenario``. ``type index`` points into ``CHANGE_TYPES``,
    ``affected`` is sorted, and ``sizes`` holds mean shifts or sdev
    factors per affected index, or correlation factors per affected pair
    in ``itertools.combinations(affected, 2)`` order.
    """
    d = base_vals.shape[0]
    kmax = spec.sparsity_max if spec.sparsity_max is not None else d // 2
    kmax = max(1, min(kmax, d))
    # the search Generator.choice(3, p=type_probs) makes, on its own
    # normalized cumulative probabilities
    cdf = np.cumsum(np.asarray(spec.type_probs, dtype=float))
    cdf = (cdf / cdf[-1]).tolist()
    mean_lo, mean_hi = spec.mean_range
    sdev_bounds = np.asarray(spec.sdev_ranges, dtype=float)
    # a factor can take a scaled correlation out of (-1, 1) only when the
    # largest factor times the largest correlation reaches 1 (the slack
    # covers the rounding of a uniform draw and of the product); never for
    # the default factors in (0, 1) and a base with no correlation near 1
    off = np.abs(base_vals[~np.eye(d, dtype=bool)])
    bound = max(abs(x) for x in spec.corr_factor_range)
    redraws = bool(off.size) and bound * off.max() * (1.0 + 1e-12) >= 1.0

    def draw(rng: np.random.Generator) -> tuple[int, np.ndarray, np.ndarray]:
        t = bisect_right(cdf, rng.random())
        k = int(rng.integers(1, kmax + 1))
        aff = np.sort(rng.choice(d, size=k, replace=False))
        if t == 0:
            if spec.equal_across_dims:
                return t, aff, np.full(k, rng.uniform(mean_lo, mean_hi))
            return t, aff, rng.uniform(mean_lo, mean_hi, size=k)
        if t == 1:
            return t, aff, _draw_sdev_factors(spec, sdev_bounds, k, rng)
        return t, aff, _draw_corr_factors(spec, base_vals, aff, rng, redraws)

    return draw


def stack_sizes(ctype: str, draws, raw_dim: int) -> np.ndarray:
    """The ``post_change_stack`` sizes of sampled changes of one type.

    ``draws`` holds ``(affected, sizes)`` pairs as ``change_sampler``
    returns them.
    """
    if ctype == CORRELATION:
        out = np.ones((len(draws), raw_dim, raw_dim))
        for i, (aff, factors) in enumerate(draws):
            iu, ju = _pair_index(aff.size)
            p, q = aff[iu], aff[ju]
            out[i, p, q] = factors
            out[i, q, p] = factors
        return out
    out = np.zeros((len(draws), raw_dim)) if ctype == MEAN else np.ones((len(draws), raw_dim))
    for i, (aff, sizes) in enumerate(draws):
        out[i, aff] = sizes
    return out


def sample_change(
    spec: ChangeDistributionSpec, base: CorrelationMatrix, rng: np.random.Generator
) -> ChangeScenario:
    """Draw one change scenario against a pre-change correlation matrix.

    The change type follows ``type_probs``, the sparsity K is uniform on
    {1, ..., K_max}, the affected set is uniform over size-K subsets, and
    sizes are iid from the type's interval(s), or one shared draw when
    ``equal_across_dims`` is set. Correlation factors that would push a
    scaled correlation outside (-1, 1) are redrawn, up to 100 times.
    """
    t, aff, sizes = change_sampler(spec, base.values)(rng)
    ctype = CHANGE_TYPES[t]
    affected = tuple(int(i) for i in aff)
    sizes = tuple(float(x) for x in sizes)
    if ctype == MEAN:
        return ChangeScenario(ctype=ctype, affected=affected, mean_sizes=sizes)
    if ctype == VARIANCE:
        return ChangeScenario(ctype=ctype, affected=affected, sdev_factors=sizes)
    return ChangeScenario(ctype=ctype, affected=affected, corr_factors=dict(zip(combinations(affected, 2), sizes)))


def apply_change(base: CorrelationMatrix, sc: ChangeScenario) -> PostChangeParams:
    """Turn a change scenario into explicit post-change parameters.

    Mean changes shift the affected components and keep the covariance.
    Variance changes congruence-scale the base matrix with the affected
    standard-deviation factors. Correlation changes multiply the affected
    off-diagonal entries and run the nearest-PD repair, which leaves
    already-valid results untouched.
    """
    return apply_change_lagged(base, sc, 0)


def post_change_stack(base_ext: np.ndarray, ctype: str, sizes: np.ndarray) -> np.ndarray:
    """Post-change mean vectors or covariance matrices of n changes of one type.

    ``sizes`` describes the changes on the raw streams, one per row: an
    (n, d) array of mean shifts (0 where unaffected) for mean changes, of
    sdev factors (1 where unaffected) for variance changes, and an
    (n, d, d) array of correlation factors (1 off the changed pairs, set
    at both (p, q) and (q, p)) for correlation changes. The (D, D)
    ``base_ext`` stacks D / d blocks of the d raw streams, and each change
    is duplicated across them. Mean changes return the (n, D) post-change
    means (the covariance stays ``base_ext``); the other two return the
    (n, D, D) post-change covariances, with zero means.
    """
    raw_dim = sizes.shape[1]
    if ctype == MEAN:
        return np.tile(sizes, (1, base_ext.shape[0] // raw_dim))
    if ctype == VARIANCE:
        scale = np.tile(sizes, (1, base_ext.shape[0] // raw_dim))
        return base_ext * (scale[:, :, None] * scale[:, None, :])
    # factors act inside each diagonal block only, so the cross-lag
    # blocks keep factor 1
    factors = np.ones((sizes.shape[0],) + base_ext.shape)
    for b in range(0, base_ext.shape[0], raw_dim):
        factors[:, b:b + raw_dim, b:b + raw_dim] = sizes
    factors *= base_ext
    return nearest_pd_stack(factors, eps=PD_FLOOR)


def apply_change_lagged(base_ext: CorrelationMatrix, sc: ChangeScenario, lag: int) -> PostChangeParams:
    """Apply a raw-dimension scenario to a lag-extended correlation matrix.

    ``base_ext`` is the correlation of the last ``lag + 1`` raw rows,
    oldest first, so its dimension is ``raw_dim * (lag + 1)``; the raw
    dimension is derived from it. A change on the raw streams is
    duplicated across the ``lag + 1`` stacked blocks of the extended
    vector: means and sdev factors are tiled, and correlation factors act
    on the matching pair inside each diagonal block (variance factors
    scale the cross-lag covariances of affected streams automatically
    through the congruence transform). This is the one-scenario case of
    ``post_change_stack``.
    """
    raw_dim = raw_dimension(base_ext.dim, lag)
    aff = np.asarray(sc.affected, dtype=int)
    if aff.max() >= raw_dim:
        raise DimensionMismatch("scenario indices exceed the raw dimension")
    base = base_ext.values
    if sc.ctype == MEAN:
        sizes = np.zeros((1, raw_dim))
        sizes[0, aff] = sc.mean_sizes
        return PostChangeParams(mean=post_change_stack(base, MEAN, sizes)[0], cov=base)
    if sc.ctype == VARIANCE:
        sizes = np.ones((1, raw_dim))
        sizes[0, aff] = sc.sdev_factors
    else:
        sizes = np.ones((1, raw_dim, raw_dim))
        for (p, q), a in sc.corr_factors.items():
            sizes[0, p, q] = sizes[0, q, p] = a
    return PostChangeParams(mean=np.zeros(base_ext.dim), cov=post_change_stack(base, sc.ctype, sizes)[0])


def projected_means(vec: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Projections v_j' mu of n mean vectors, as an (n, D) array."""
    # one vector-matrix product per row: the same sums as vec.T @ mu
    return np.matmul(means[:, None, :], vec)[:, 0, :]


def projected_variances(vec: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Projection variances v_j' Sigma v_j of n covariances, as an (n, D) array."""
    return np.einsum("ij,nij->nj", vec, np.matmul(covs, vec))


def sensitivity_stack(es: EigenSystem, proj_means, proj_vars) -> np.ndarray:
    """Hellinger sensitivities of every axis for n changes, as an (n, D) array.

    ``proj_means`` and ``proj_vars`` are the post-change projection means
    and variances (from ``projected_means`` and ``projected_variances``),
    or anything that broadcasts against (n, D), such as 0.0 for changes
    that keep the mean or one (D,) row for changes that keep the
    covariance.
    """
    lam = es.values
    if lam[-1] <= PD_FLOOR:
        raise ZeroEigenvalue(f"smallest eigenvalue {lam[-1]:.3e} is at or below the floor {PD_FLOOR:.1e}")
    return _hellinger_arrays(0.0, np.sqrt(lam), proj_means, np.sqrt(proj_vars))


def projection_sensitivities(es: EigenSystem, post: PostChangeParams) -> np.ndarray:
    """Sensitivity of every principal-axis projection to a given change.

    Projection j is N(0, lam_j) before the change and
    N(v_j' mu1, v_j' Sigma1 v_j) after it; the sensitivity is the
    Hellinger distance between the two. This is the one-change case of
    ``sensitivity_stack``.
    """
    if es.dim != post.dim:
        raise DimensionMismatch("eigensystem and post-change parameters disagree in dimension")
    vec = es.vectors
    h = sensitivity_stack(es, projected_means(vec, post.mean[None]), projected_variances(vec, post.cov[None]))
    return h[0]
