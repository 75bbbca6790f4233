import importlib
from itertools import combinations

import numpy as np
import pytest

from tailormon import (
    ChangeDistributionSpec,
    ChangeScenario,
    CorrelationMatrix,
    DegenerateCorrelation,
    DimensionMismatch,
    NoConvergence,
    PostChangeParams,
    apply_change_lagged,
    estimate_training,
    identity_selection,
    lag_extend_matrix,
    max_variance_selection,
    min_variance_selection,
    projection_sensitivities,
    random_correlation,
    sample_change,
    select_axes,
    tailor,
)
from tailormon.changemodel import CHANGE_TYPES, PD_FLOOR, _hellinger_arrays
from tailormon.corrcore import eigensystem

from pd_reference import ref_nearest_pd


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


# ---------------------------------------------------------------------------
# Per-draw reference: one scenario sampled, applied, repaired and scored at
# a time, as tailor did before it scored changes in stacks. The stacked
# Monte Carlo must agree with it bit for bit.
# ---------------------------------------------------------------------------


def ref_sample_change(spec, base, rng):
    d = base.dim
    kmax = spec.sparsity_max if spec.sparsity_max is not None else d // 2
    kmax = max(1, min(kmax, d))
    ctype = CHANGE_TYPES[int(rng.choice(3, p=np.asarray(spec.type_probs, dtype=float)))]
    k = int(rng.integers(1, kmax + 1))
    affected = tuple(int(i) for i in np.sort(rng.choice(d, size=k, replace=False)))
    if ctype == "mean":
        lo, hi = spec.mean_range
        if spec.equal_across_dims:
            sizes = np.full(k, rng.uniform(lo, hi))
        else:
            sizes = rng.uniform(lo, hi, size=k)
        return ChangeScenario(ctype=ctype, affected=affected, mean_sizes=tuple(float(x) for x in sizes))
    if ctype == "variance":
        if spec.equal_across_dims:
            lo, hi = spec.sdev_ranges[int(rng.integers(0, 2))]
            factors = np.full(k, rng.uniform(lo, hi))
        else:
            which = rng.integers(0, 2, size=k)
            bounds = np.asarray(spec.sdev_ranges, dtype=float)
            factors = rng.uniform(bounds[which, 0], bounds[which, 1])
        return ChangeScenario(ctype=ctype, affected=affected, sdev_factors=tuple(float(x) for x in factors))
    pairs = list(combinations(affected, 2))
    lo, hi = spec.corr_factor_range
    base_vals = base.values
    factors = {}
    if spec.equal_across_dims:
        for _ in range(100):
            a = float(rng.uniform(lo, hi))
            if all(abs(a * base_vals[p, q]) < 1.0 for p, q in pairs):
                factors = {pq: a for pq in pairs}
                break
        else:
            raise NoConvergence("shared factor")
    else:
        for p, q in pairs:
            rho = base_vals[p, q]
            for _ in range(100):
                a = float(rng.uniform(lo, hi))
                if abs(a * rho) < 1.0:
                    factors[(p, q)] = a
                    break
            else:
                raise NoConvergence(f"pair ({p}, {q})")
    return ChangeScenario(ctype=ctype, affected=affected, corr_factors=factors)


def ref_apply_change_lagged(base_ext, sc, raw_dim, lag):
    d_ext = base_ext.dim
    aff = np.asarray(sc.affected, dtype=int)
    blocks = range(0, d_ext, raw_dim)
    mu = np.zeros(d_ext)
    if sc.ctype == "mean":
        for b in blocks:
            mu[aff + b] = np.asarray(sc.mean_sizes, dtype=float)
        return PostChangeParams(mean=mu, cov=base_ext.values)
    if sc.ctype == "variance":
        scale = np.ones(d_ext)
        for b in blocks:
            scale[aff + b] = np.asarray(sc.sdev_factors, dtype=float)
        return PostChangeParams(mean=mu, cov=base_ext.values * np.outer(scale, scale))
    r = np.array(base_ext.values)
    for (p, q), a in sc.corr_factors.items():
        for b in blocks:
            r[p + b, q + b] = r[q + b, p + b] = a * r[p + b, q + b]
    return PostChangeParams(mean=mu, cov=ref_nearest_pd(r, PD_FLOOR)[0].values)


def ref_projection_sensitivities(es, post):
    vec = es.vectors
    proj_means = vec.T @ post.mean
    proj_vars = np.einsum("ij,ij->j", vec, post.cov @ vec)
    return _hellinger_arrays(0.0, np.sqrt(es.values), proj_means, np.sqrt(proj_vars))


def ref_tailor(base, spec, cutoff, draws, rng, raw_dim=None, lag=0):
    """Per-draw loop: (argmax_probs, mean_sensitivity, by_type, indices)."""
    es = eigensystem(base)
    d = base.dim
    counts = np.zeros(d)
    hsum = np.zeros(d)
    type_counts = {c: np.zeros(d) for c in CHANGE_TYPES}
    type_hsum = {c: np.zeros(d) for c in CHANGE_TYPES}
    type_draws = {c: 0 for c in CHANGE_TYPES}
    if lag > 0:
        block = base.values[:raw_dim, :raw_dim].copy()
        np.fill_diagonal(block, 1.0)
        sample_base = CorrelationMatrix(block)
    else:
        sample_base, raw_dim = base, d
    for _ in range(draws):
        sc = ref_sample_change(spec, sample_base, rng)
        h = ref_projection_sensitivities(es, ref_apply_change_lagged(base, sc, raw_dim, lag))
        j = int(np.argmax(h))
        counts[j] += 1.0
        hsum += h
        type_counts[sc.ctype][j] += 1.0
        type_hsum[sc.ctype] += h
        type_draws[sc.ctype] += 1
    breakdown = {
        c: {
            "draws": type_draws[c],
            "argmax_contribution": (type_counts[c] / draws).tolist(),
            "mean_sensitivity": (type_hsum[c] / type_draws[c]).tolist() if type_draws[c] else None,
        }
        for c in CHANGE_TYPES
    }
    phat = counts / draws
    return phat, hsum / draws, breakdown, select_axes(phat, cutoff)


def lagged_base(raw_dim, lag, seed):
    """Correlation of a lag-extended AR(1) sample, as the CLI builds it."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((400, raw_dim)) @ np.linalg.cholesky(random_correlation(raw_dim, 1.0, rng).values).T
    for t in range(1, raw.shape[0]):
        raw[t] += 0.5 * raw[t - 1]
    return estimate_training(lag_extend_matrix(raw, lag)).corr


SPECS = {
    "default": ChangeDistributionSpec(),
    "equal": ChangeDistributionSpec(equal_across_dims=True),
    "mean": ChangeDistributionSpec(type_probs=(1.0, 0.0, 0.0)),
    "variance": ChangeDistributionSpec(type_probs=(0.0, 1.0, 0.0)),
    "correlation": ChangeDistributionSpec(type_probs=(0.0, 0.0, 1.0)),
    "redraws": ChangeDistributionSpec(corr_factor_range=(0.5, 40.0)),
    "redraws_equal": ChangeDistributionSpec(corr_factor_range=(0.5, 40.0), equal_across_dims=True),
}


def assert_matches_reference(base, spec, draws, seed, raw_dim=None, lag=0):
    rng_ref = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    phat, hbar, by_type, indices = ref_tailor(base, spec, 0.9, draws, rng_ref, raw_dim, lag)
    sel = tailor(base, spec, 0.9, draws, rng, lag=lag)
    assert np.array_equal(sel.argmax_probs, phat)
    assert np.array_equal(sel.mean_sensitivity, hbar)
    assert sel.by_type == by_type
    assert sel.indices == indices
    assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestStackedMonteCarloMatchesPerDrawLoop:
    @pytest.mark.parametrize("dim", [2, 5, 20])
    @pytest.mark.parametrize("draws", [1, 7, 1001])
    def test_default_spec(self, dim, draws):
        base = random_correlation(dim, 0.5, np.random.default_rng(dim))
        assert_matches_reference(base, SPECS["default"], draws, seed=100 + draws)

    @pytest.mark.parametrize("name", ["equal", "mean", "variance", "correlation", "redraws", "redraws_equal"])
    @pytest.mark.parametrize("dim", [2, 5, 20])
    def test_spec_variants(self, name, dim):
        # weak correlations for the (0.5, 40) factors, so that redraws
        # happen but do not run out
        alpha = 30.0 if name.startswith("redraws") else 0.3
        base = random_correlation(dim, alpha, np.random.default_rng(40 + dim))
        assert_matches_reference(base, SPECS[name], 301, seed=7)

    @pytest.mark.parametrize("name", ["default", "equal", "correlation", "redraws"])
    def test_lag_one(self, name):
        base = lagged_base(5, 1, seed=3)
        assert_matches_reference(base, SPECS[name], 1001, seed=11, raw_dim=5, lag=1)

    def test_redraw_spec_does_redraw(self):
        # the (0.5, 40) factors must leave (-1, 1) for some pair, or the
        # redraw path would go untested
        base = random_correlation(5, 30.0, np.random.default_rng(45))
        rng = np.random.default_rng(7)
        spec = SPECS["redraws"]
        lo, hi = spec.corr_factor_range
        redrawn = 0
        for _ in range(200):
            sc = ref_sample_change(spec, base, rng)
            if sc.ctype == "correlation":
                redrawn += any(abs(hi * base.values[p, q]) >= 1.0 for p, q in sc.corr_factors)
        assert redrawn > 10

    @pytest.mark.parametrize("equal", [False, True])
    def test_exhausted_redraws_fail_at_the_same_draw(self, equal):
        # every factor in (2.5, 3) scales a correlation of 0.5 out of (-1, 1)
        base = CorrelationMatrix(np.full((5, 5), 0.5) + 0.5 * np.eye(5))
        spec = ChangeDistributionSpec(corr_factor_range=(2.5, 3.0), equal_across_dims=equal)
        rng_ref = np.random.default_rng(8)
        rng = np.random.default_rng(8)
        with pytest.raises(NoConvergence):
            ref_tailor(base, spec, 0.9, 500, rng_ref)
        with pytest.raises(NoConvergence):
            tailor(base, spec, 0.9, 500, rng)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestOneChangeCaseMatchesPerDrawCode:
    @pytest.mark.parametrize(
        "type_probs",
        [(1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.2, 0.3, 0.5 - 4e-10), (0.5, 0.5, 0.0)],
    )
    def test_sample_change_matches_generator_choice(self, type_probs):
        # the type is drawn by searching the normalized cumulative
        # probabilities, the algorithm behind Generator.choice(3, p=...)
        spec = ChangeDistributionSpec(type_probs=type_probs)
        base = random_correlation(6, 1.0, np.random.default_rng(0))
        for seed in range(200):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                assert sample_change(spec, base, rng) == ref_sample_change(spec, base, rng_ref)
            assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("raw_dim, lag", [(6, 0), (5, 1)])
    def test_apply_and_score_one_scenario(self, raw_dim, lag):
        base = lagged_base(raw_dim, lag, seed=5) if lag else random_correlation(raw_dim, 0.5, np.random.default_rng(5))
        block = base.values[:raw_dim, :raw_dim].copy()
        np.fill_diagonal(block, 1.0)
        sample_base = CorrelationMatrix(block)
        es = eigensystem(base)
        rng = np.random.default_rng(6)
        for _ in range(300):
            sc = sample_change(ChangeDistributionSpec(), sample_base, rng)
            post = apply_change_lagged(base, sc, lag)
            ref = ref_apply_change_lagged(base, sc, raw_dim, lag)
            assert np.array_equal(post.mean, ref.mean)
            assert np.array_equal(post.cov, ref.cov)
            assert np.array_equal(projection_sensitivities(es, post), ref_projection_sensitivities(es, ref))


class TestApplyChangeLaggedArguments:
    @pytest.mark.parametrize("lag", [3, 4, 6])
    def test_lag_must_divide_the_dimension(self, lag):
        base = random_correlation(6, 1.0, np.random.default_rng(0))
        sc = ChangeScenario(ctype="mean", affected=(0,), mean_sizes=(1.0,))
        with pytest.raises(DimensionMismatch, match="multiple of lag"):
            apply_change_lagged(base, sc, lag)

    def test_negative_lag(self):
        sc = ChangeScenario(ctype="mean", affected=(0,), mean_sizes=(1.0,))
        with pytest.raises(ValueError, match="lag"):
            apply_change_lagged(corr2(0.5), sc, -1)


class TestArgumentsCheckedBeforeDrawing:
    @pytest.fixture
    def no_draws(self, monkeypatch):
        def sampler(*args, **kwargs):
            raise AssertionError("a change was drawn before the arguments were checked")

        # the package's ``tailor`` function shadows the module's name
        monkeypatch.setattr(importlib.import_module("tailormon.tailor"), "change_sampler", sampler)

    @pytest.mark.parametrize("cutoff", [1.5, -0.1, float("nan")])
    def test_bad_cutoff(self, no_draws, cutoff):
        with pytest.raises(ValueError, match="cutoff"):
            tailor(corr2(0.5), ChangeDistributionSpec(), cutoff, 100, np.random.default_rng(0))

    def test_bad_draws(self, no_draws):
        with pytest.raises(ValueError, match="draws"):
            tailor(corr2(0.5), ChangeDistributionSpec(), 0.9, 0, np.random.default_rng(0))

    def test_bad_lag(self, no_draws):
        with pytest.raises(ValueError, match="lag"):
            tailor(corr2(0.5), ChangeDistributionSpec(), 0.9, 100, np.random.default_rng(0), lag=-1)

    @pytest.mark.parametrize("lag", [3, 4, 6])
    def test_lag_must_divide_the_dimension(self, no_draws, lag):
        base = random_correlation(6, 1.0, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch, match="multiple of lag"):
            tailor(base, ChangeDistributionSpec(), 0.9, 100, np.random.default_rng(0), lag=lag)
