import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare, norm

from hellinger_reference import NormalParams, hellinger_normal
from tailormon import (
    ChangeDistributionSpec,
    ChangeScenario,
    CorrelationMatrix,
    PostChangeParams,
    apply_change,
    eigensystem,
    projection_sensitivities,
    random_correlation,
    sample_change,
)
from tailormon.changemodel import _hellinger_arrays


def corr2(rho):
    return CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))


def hellinger_quadrature(p: NormalParams, q: NormalParams) -> float:
    """Independent oracle: H^2 = 1 - integral of sqrt(p(x) q(x))."""

    def integrand(x):
        return math.sqrt(norm.pdf(x, p.mean, p.sdev) * norm.pdf(x, q.mean, q.sdev))

    lo = min(p.mean - 12 * p.sdev, q.mean - 12 * q.sdev)
    hi = max(p.mean + 12 * p.sdev, q.mean + 12 * q.sdev)
    bc, _ = quad(integrand, lo, hi, limit=200, epsabs=1e-12, epsrel=1e-12)
    return math.sqrt(max(0.0, 1.0 - bc))


class TestHellinger:
    def test_identical_is_zero(self):
        assert hellinger_normal(NormalParams(0.3, 1.7), NormalParams(0.3, 1.7)) == 0.0

    def test_symmetric_in_arguments(self):
        p, q = NormalParams(0.0, 1.0), NormalParams(1.2, 0.4)
        assert hellinger_normal(p, q) == hellinger_normal(q, p)

    def test_variance_scale_symmetry(self):
        up = hellinger_normal(NormalParams(0.0, 1.0), NormalParams(0.0, 2.0))
        down = hellinger_normal(NormalParams(0.0, 1.0), NormalParams(0.0, 0.5))
        assert abs(up - down) < 1e-15

    def test_pure_mean_shift_closed_form(self):
        h = hellinger_normal(NormalParams(0.0, 1.0), NormalParams(2.0, 1.0))
        assert h * h == pytest.approx(1.0 - math.exp(-0.5), abs=1e-15)

    def test_bounds_and_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        m1, m2 = rng.normal(0, 3, 100_000), rng.normal(0, 3, 100_000)
        s1, s2 = rng.uniform(0.05, 5, 100_000), rng.uniform(0.05, 5, 100_000)
        h = _hellinger_arrays(m1, s1, m2, s2)
        assert np.all(h >= 0.0) and np.all(h <= 1.0)
        equalish = (np.abs(m1 - m2) < 1e-12) & (np.abs(s1 - s2) < 1e-12)
        assert np.all(h[~equalish] > 0.0)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = NormalParams(float(rng.normal(0, 2)), float(rng.uniform(0.2, 3)))
            q = NormalParams(float(rng.normal(0, 2)), float(rng.uniform(0.2, 3)))
            assert hellinger_normal(p, q) == pytest.approx(hellinger_quadrature(p, q), abs=1e-8)

    def test_zero_mean_ordering_lemma(self):
        # ordering by H equals ordering by |log variance ratio|
        rng = np.random.default_rng(2)
        n = 10_000
        v = np.exp(rng.uniform(-3, 3, size=(n, 4)))
        h1 = _hellinger_arrays(0.0, np.sqrt(v[:, 0]), 0.0, np.sqrt(v[:, 1]))
        h2 = _hellinger_arrays(0.0, np.sqrt(v[:, 2]), 0.0, np.sqrt(v[:, 3]))
        r1 = np.abs(np.log(v[:, 1] / v[:, 0]))
        r2 = np.abs(np.log(v[:, 3] / v[:, 2]))
        assert np.array_equal(h2 > h1, r2 > r1)


class TestChangeDistributionSpec:
    def test_default_round_trip(self):
        spec = ChangeDistributionSpec()
        assert ChangeDistributionSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_custom(self):
        spec = ChangeDistributionSpec(
            type_probs=(1.0, 0.0, 0.0),
            sparsity_max=3,
            mean_range=(-0.5, 0.5),
            equal_across_dims=True,
        )
        assert ChangeDistributionSpec.from_dict(spec.to_dict()) == spec

    def test_invalid_probs(self):
        with pytest.raises(ValueError):
            ChangeDistributionSpec(type_probs=(0.5, 0.5, 0.5))

    def test_invalid_sdev_interval(self):
        with pytest.raises(ValueError):
            ChangeDistributionSpec(sdev_ranges=((0.0, 1.0), (1.0, 2.0)))


class TestSampleChange:
    def test_degenerate_type_probs(self):
        base = corr2(0.5)
        spec = ChangeDistributionSpec(type_probs=(1.0, 0.0, 0.0))
        rng = np.random.default_rng(3)
        assert all(sample_change(spec, base, rng).ctype == "mean" for _ in range(200))

    def test_type_marginal(self):
        base = random_correlation(6, 1.0, np.random.default_rng(4))
        rng = np.random.default_rng(5)
        n = 10_000
        kinds = [sample_change(ChangeDistributionSpec(), base, rng).ctype for _ in range(n)]
        assert kinds.count("mean") / n == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_sparsity_bounded_by_half_dim(self):
        base = random_correlation(20, 1.0, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        ks = [sample_change(ChangeDistributionSpec(), base, rng).sparsity for _ in range(2000)]
        assert set(ks) <= set(range(1, 11))

    def test_marginals_goodness_of_fit(self):
        base = random_correlation(8, 1.0, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        n = 100_000
        type_counts = {"mean": 0, "variance": 0, "correlation": 0}
        k_counts = np.zeros(4, dtype=int)
        for _ in range(n):
            sc = sample_change(ChangeDistributionSpec(), base, rng)
            type_counts[sc.ctype] += 1
            k_counts[sc.sparsity - 1] += 1
        _, p_type = chisquare(list(type_counts.values()))
        _, p_k = chisquare(k_counts)
        assert p_type > 1e-3
        assert p_k > 1e-3

    def test_deterministic(self):
        base = random_correlation(5, 1.0, np.random.default_rng(10))
        a = sample_change(ChangeDistributionSpec(), base, np.random.default_rng(77))
        b = sample_change(ChangeDistributionSpec(), base, np.random.default_rng(77))
        assert a == b

    def test_equal_across_dims_shares_one_draw(self):
        base = random_correlation(10, 1.0, np.random.default_rng(11))
        spec = ChangeDistributionSpec(equal_across_dims=True)
        rng = np.random.default_rng(12)
        for _ in range(100):
            sc = sample_change(spec, base, rng)
            if sc.ctype == "mean":
                assert len(set(sc.mean_sizes)) == 1
            elif sc.ctype == "variance":
                assert len(set(sc.sdev_factors)) == 1
            elif sc.corr_factors:
                assert len(set(sc.corr_factors.values())) == 1

    def test_scenario_field_discipline(self):
        with pytest.raises(ValueError):
            ChangeScenario(ctype="mean", affected=(0,), sdev_factors=(2.0,))

    @pytest.mark.parametrize("pairs", [{(3, 1): 0.5}, {(1, 1): 0.5}, {(1, 2): 0.5}])
    def test_correlation_pairs_are_ordered_affected_pairs(self, pairs):
        with pytest.raises(ValueError):
            ChangeScenario(ctype="correlation", affected=(1, 3), corr_factors=pairs)


class TestApplyChange:
    def test_null_change_is_identity(self):
        base = corr2(0.5)
        sc = ChangeScenario(ctype="mean", affected=(0, 1), mean_sizes=(0.0, 0.0))
        post = apply_change(base, sc)
        assert np.array_equal(post.mean, np.zeros(2))
        assert np.array_equal(post.cov, base.values)
        sc2 = ChangeScenario(ctype="variance", affected=(0, 1), sdev_factors=(1.0, 1.0))
        assert np.array_equal(apply_change(base, sc2).cov, base.values)

    def test_variance_crc_product(self):
        base = corr2(0.5)
        sc = ChangeScenario(ctype="variance", affected=(1,), sdev_factors=(2.0,))
        post = apply_change(base, sc)
        assert np.array_equal(post.cov, np.array([[1.0, 1.0], [1.0, 4.0]]))

    def test_correlation_zeroed(self):
        base = random_correlation(5, 0.5, np.random.default_rng(13))
        sc = ChangeScenario(ctype="correlation", affected=(1, 3), corr_factors={(1, 3): 0.0})
        post = apply_change(base, sc)
        assert post.cov[1, 3] == pytest.approx(0.0, abs=1e-6)

    def test_locality_mean_variance(self):
        base = random_correlation(8, 1.0, np.random.default_rng(14))
        sc = ChangeScenario(ctype="variance", affected=(2, 5), sdev_factors=(1.7, 0.6))
        post = apply_change(base, sc)
        outside = [i for i in range(8) if i not in (2, 5)]
        assert np.array_equal(post.cov[np.ix_(outside, outside)], base.values[np.ix_(outside, outside)])

    def test_locality_correlation_repair_small(self):
        # repair perturbation outside the affected block stays small on a
        # grid of multiplicative factors and sparsities
        rng = np.random.default_rng(15)
        for a in (0.0, 0.25, 0.5, 0.75):
            for k in (2, 5):
                base = random_correlation(10, 1.0, rng)
                affected = tuple(range(k))
                pairs = {(i, j): a for i in affected for j in affected if i < j}
                sc = ChangeScenario(ctype="correlation", affected=affected, corr_factors=pairs)
                post = apply_change(base, sc)
                outside = [i for i in range(10) if i not in affected]
                diff = np.abs(post.cov[np.ix_(outside, outside)] - base.values[np.ix_(outside, outside)])
                assert diff.max() < 0.05


class TestProjectionSensitivities:
    def test_no_change_all_zero(self):
        base = random_correlation(6, 1.0, np.random.default_rng(16))
        es = eigensystem(base)
        post = PostChangeParams(mean=np.zeros(6), cov=base.values)
        assert np.abs(projection_sensitivities(es, post)).max() < 1e-7

    def test_bivariate_single_mean_change(self):
        base = corr2(0.5)
        es = eigensystem(base)
        post = PostChangeParams(mean=np.array([1.0, 0.0]), cov=base.values)
        h = projection_sensitivities(es, post)
        # projections see means +-1/sqrt(2) with variances 1.5 and 0.5
        assert h[0] ** 2 == pytest.approx(1.0 - math.exp(-0.5 / 12.0), abs=1e-12)
        assert h[1] ** 2 == pytest.approx(1.0 - math.exp(-0.5 / 4.0), abs=1e-12)
        assert h[1] > h[0]

