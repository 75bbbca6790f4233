"""Change distributions, post-change parameters and projection sensitivities.

A change scenario picks one change type (mean, variance or correlation),
a sparsity ``K``, a uniformly drawn affected index set and per-component
change sizes. Applying a scenario to a pre-change correlation matrix
yields explicit post-change parameters ``(mu1, Sigma1)``; the sensitivity
of a principal-axis projection is the Hellinger distance between its
marginal distribution before and after that change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .corrcore import CorrelationMatrix, EigenSystem, nearest_pd_correlation
from .errors import DimensionMismatch, NoConvergence, ZeroEigenvalue

MEAN = "mean"
VARIANCE = "variance"
CORRELATION = "correlation"
CHANGE_TYPES = (MEAN, VARIANCE, CORRELATION)

PD_FLOOR = 1e-8
_MAX_REDRAWS = 100


@dataclass(frozen=True)
class NormalParams:
    """Mean and standard deviation of a univariate normal."""

    mean: float
    sdev: float

    def __post_init__(self):
        if not self.sdev > 0.0:
            raise ValueError("sdev must be positive")


def hellinger_normal(p: NormalParams, q: NormalParams) -> float:
    """Hellinger distance between two univariate normals, in [0, 1].

    H^2 = 1 - sqrt(2*s1*s2 / (s1^2 + s2^2)) * exp(-(m1 - m2)^2 / (4*(s1^2 + s2^2)))

    Symmetric in its arguments, and symmetric in whether a variance is
    multiplied or divided by a factor. Zero exactly when p == q.
    """
    return float(_hellinger_arrays(p.mean, p.sdev, q.mean, q.sdev))


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


def _draw_sdev_factors(spec: ChangeDistributionSpec, k: int, rng: np.random.Generator) -> np.ndarray:
    if spec.equal_across_dims:
        lo, hi = spec.sdev_ranges[int(rng.integers(0, 2))]
        return np.full(k, rng.uniform(lo, hi))
    which = rng.integers(0, 2, size=k)
    bounds = np.asarray(spec.sdev_ranges, dtype=float)
    lo = bounds[which, 0]
    hi = bounds[which, 1]
    return rng.uniform(lo, hi)


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
    d = base.dim
    kmax = spec.sparsity_max if spec.sparsity_max is not None else d // 2
    kmax = max(1, min(kmax, d))
    ctype = CHANGE_TYPES[int(rng.choice(3, p=np.asarray(spec.type_probs, dtype=float)))]
    k = int(rng.integers(1, kmax + 1))
    affected = tuple(int(i) for i in np.sort(rng.choice(d, size=k, replace=False)))

    if ctype == MEAN:
        lo, hi = spec.mean_range
        if spec.equal_across_dims:
            sizes = np.full(k, rng.uniform(lo, hi))
        else:
            sizes = rng.uniform(lo, hi, size=k)
        return ChangeScenario(ctype=ctype, affected=affected, mean_sizes=tuple(float(x) for x in sizes))

    if ctype == VARIANCE:
        factors = _draw_sdev_factors(spec, k, rng)
        return ChangeScenario(ctype=ctype, affected=affected, sdev_factors=tuple(float(x) for x in factors))

    pairs = list(combinations(affected, 2))
    lo, hi = spec.corr_factor_range
    base_vals = base.values
    factors: dict[tuple[int, int], float] = {}
    if spec.equal_across_dims:
        for _ in range(_MAX_REDRAWS):
            a = float(rng.uniform(lo, hi))
            if all(abs(a * base_vals[p, q]) < 1.0 for p, q in pairs):
                factors = {pq: a for pq in pairs}
                break
        else:
            raise NoConvergence("could not draw an admissible shared correlation factor in 100 tries")
    else:
        for p, q in pairs:
            rho = base_vals[p, q]
            for _ in range(_MAX_REDRAWS):
                a = float(rng.uniform(lo, hi))
                if abs(a * rho) < 1.0:
                    factors[(p, q)] = a
                    break
            else:
                raise NoConvergence(
                    f"could not draw an admissible correlation factor for pair ({p}, {q}) in 100 tries"
                )
    return ChangeScenario(ctype=ctype, affected=affected, corr_factors=factors)


def apply_change(base: CorrelationMatrix, sc: ChangeScenario, pd_floor: float = PD_FLOOR) -> PostChangeParams:
    """Turn a change scenario into explicit post-change parameters.

    Mean changes shift the affected components and keep the covariance.
    Variance changes congruence-scale the base matrix with the affected
    standard-deviation factors. Correlation changes multiply the affected
    off-diagonal entries and run the nearest-PD repair, which leaves
    already-valid results untouched.
    """
    return apply_change_lagged(base, sc, base.dim, 0, pd_floor)


def apply_change_lagged(
    base_ext: CorrelationMatrix,
    sc: ChangeScenario,
    raw_dim: int,
    lag: int,
    pd_floor: float = PD_FLOOR,
) -> PostChangeParams:
    """Apply a raw-dimension scenario to a lag-extended correlation matrix.

    A change on the raw streams is duplicated across the ``lag + 1``
    stacked blocks of the extended vector: means and sdev factors are
    tiled, and correlation factors act on the matching pair inside each
    diagonal block (variance factors scale the cross-lag covariances of
    affected streams automatically through the congruence transform).
    """
    d_ext = base_ext.dim
    if d_ext != raw_dim * (lag + 1):
        raise DimensionMismatch("extended dimension does not match raw_dim * (lag + 1)")
    aff = np.asarray(sc.affected, dtype=int)
    if aff.max() >= raw_dim:
        raise DimensionMismatch("scenario indices exceed the raw dimension")
    blocks = range(0, d_ext, raw_dim)  # Python ints keep the index arithmetic cheap
    mu = np.zeros(d_ext)
    if sc.ctype == MEAN:
        sizes = np.asarray(sc.mean_sizes, dtype=float)
        for b in blocks:
            mu[aff + b] = sizes
        return PostChangeParams(mean=mu, cov=base_ext.values)
    if sc.ctype == VARIANCE:
        scale = np.ones(d_ext)
        factors = np.asarray(sc.sdev_factors, dtype=float)
        for b in blocks:
            scale[aff + b] = factors
        return PostChangeParams(mean=mu, cov=base_ext.values * np.outer(scale, scale))
    r = np.array(base_ext.values)
    for (p, q), a in sc.corr_factors.items():
        for b in blocks:
            r[p + b, q + b] = r[q + b, p + b] = a * r[p + b, q + b]
    repaired = nearest_pd_correlation(r, eps=pd_floor)
    return PostChangeParams(mean=mu, cov=repaired.values)


def projection_sensitivities(
    es: EigenSystem,
    post: PostChangeParams,
    pd_floor: float = PD_FLOOR,
) -> np.ndarray:
    """Sensitivity of every principal-axis projection to a given change.

    Projection j is N(0, lam_j) before the change and
    N(v_j' mu1, v_j' Sigma1 v_j) after it; the sensitivity is the
    Hellinger distance between the two.
    """
    if es.dim != post.dim:
        raise DimensionMismatch("eigensystem and post-change parameters disagree in dimension")
    lam = es.values
    if lam[-1] <= pd_floor:
        raise ZeroEigenvalue(f"smallest eigenvalue {lam[-1]:.3e} is at or below the floor {pd_floor:.1e}")
    vec = es.vectors
    proj_means = vec.T @ post.mean
    proj_vars = np.einsum("ij,ij->j", vec, post.cov @ vec)
    return _hellinger_arrays(0.0, np.sqrt(lam), proj_means, np.sqrt(proj_vars))
