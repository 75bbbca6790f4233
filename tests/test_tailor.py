import numpy as np
import pytest

from tailormon import (
    ChangeDistributionSpec,
    CorrelationMatrix,
    DegenerateCorrelation,
    identity_selection,
    max_variance_selection,
    min_variance_selection,
    random_correlation,
    select_axes,
    tailor,
)
from tailormon.corrcore import eigensystem


def corr2(rho):
    return CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))


MEAN_ONLY = ChangeDistributionSpec(type_probs=(1.0, 0.0, 0.0))


class TestSelectAxes:
    def test_basic_cutoff(self):
        assert select_axes([0.5, 0.3, 0.2], 0.7) == (0, 1)

    def test_full_cutoff_takes_all(self):
        assert select_axes([0.5, 0.3, 0.2], 1.0) == (0, 1, 2)

    def test_ties_prefer_larger_index(self):
        assert select_axes([0.25, 0.25, 0.25, 0.25], 0.5) == (3, 2)

    def test_zero_cutoff_single_axis(self):
        assert select_axes([0.2, 0.5, 0.3], 0.0) == (1,)

    def test_minimality(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(8))
            c = float(rng.uniform(0.05, 0.999))
            chosen = select_axes(p, c)
            assert p[list(chosen)].sum() >= c - 1e-9
            if len(chosen) > 1:
                assert p[list(chosen[:-1])].sum() < c

    def test_monotone_in_cutoff(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.dirichlet(np.ones(6))
            lo, hi = sorted(rng.uniform(0.0, 1.0, size=2))
            assert set(select_axes(p, lo)) <= set(select_axes(p, hi))

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            select_axes([0.5, 0.2], 0.5)


class TestEstimateArgmaxProbabilities:
    def test_probabilities_partition(self):
        base = random_correlation(7, 0.5, np.random.default_rng(2))
        sel = tailor(base, ChangeDistributionSpec(), 0.9, 500, np.random.default_rng(3))
        phat, hbar = sel.argmax_probs, sel.mean_sensitivity
        assert phat.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(phat >= 0.0)
        assert np.all((hbar >= 0.0) & (hbar <= 1.0))

    def test_bivariate_mean_changes_concentrate_on_least_varying(self):
        # at D=2 sparsity is forced to 1, so a single mean changes and the
        # least varying projection is always the argmax
        sel = tailor(corr2(0.5), MEAN_ONLY, 0.9, 10_000, np.random.default_rng(4))
        assert sel.argmax_probs[1] == 1.0


class TestTailor:
    def test_deterministic(self):
        base = random_correlation(10, 0.3, np.random.default_rng(5))
        a = tailor(base, ChangeDistributionSpec(), 0.9, 1000, np.random.default_rng(6))
        b = tailor(base, ChangeDistributionSpec(), 0.9, 1000, np.random.default_rng(6))
        assert a.indices == b.indices
        assert np.array_equal(a.argmax_probs, b.argmax_probs)

    def test_high_correlation_selects_few_least_varying(self):
        base = random_correlation(20, 0.1, np.random.default_rng(18))
        spec = ChangeDistributionSpec(type_probs=(0.0, 0.5, 0.5))
        sel = tailor(base, spec, 0.99, 4000, np.random.default_rng(8))
        assert sel.n_axes <= 6
        # the ranking is dominated by the least varying axes
        assert sel.indices[0] == 19
        bottom_half = [j for j in sel.indices if j >= 10]
        assert sel.argmax_probs[bottom_half].sum() > 0.9

    def test_cumulative_probability_meets_cutoff(self):
        base = random_correlation(12, 1.0, np.random.default_rng(9))
        sel = tailor(base, ChangeDistributionSpec(), 0.8, 2000, np.random.default_rng(10))
        assert sel.argmax_probs[list(sel.indices)].sum() >= 0.8 - 1e-9
        assert sel.eigenvalues.shape == (sel.n_axes,)
        assert sel.eigenvectors.shape == (12, sel.n_axes)

    def test_by_type_contributions_sum_to_overall(self):
        base = random_correlation(6, 1.0, np.random.default_rng(11))
        sel = tailor(base, ChangeDistributionSpec(), 0.9, 1500, np.random.default_rng(12))
        total = np.zeros(6)
        for entry in sel.by_type.values():
            total += np.asarray(entry["argmax_contribution"])
        assert np.allclose(total, sel.argmax_probs, atol=1e-12)

    def test_rejects_covariance_input(self):
        cov = 2.0 * np.eye(3)
        with pytest.raises(DegenerateCorrelation):
            tailor(cov, ChangeDistributionSpec(), 0.9, 100, np.random.default_rng(13))


class TestManualSelections:
    def test_min_max_variance_axes(self):
        base = random_correlation(6, 1.0, np.random.default_rng(14))
        es = eigensystem(base)
        assert min_variance_selection(es, 2).indices == (4, 5)
        assert max_variance_selection(es, 2).indices == (0, 1)

    def test_identity_selection(self):
        sel = identity_selection(4)
        assert sel.identity
        assert sel.indices == (0, 1, 2, 3)
        assert np.array_equal(sel.eigenvectors, np.eye(4))
        assert np.array_equal(sel.eigenvalues, np.ones(4))
