import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailormon import (
    ChangeDistributionSpec,
    ChangeScenario,
    ConstantColumn,
    CorrelationMatrix,
    DegenerateCorrelation,
    DimensionMismatch,
    apply_change_lagged,
    build_monitor_model,
    eigensystem,
    NoConvergence,
    estimate_training,
    identity_selection,
    nearest_pd_correlation,
    random_correlation,
    restore_monitor_model,
    tailor,
)
from tailormon import _fileio, corrcore
from tailormon.corrcore import nearest_pd_stack

from pd_reference import ref_nearest_pd


def corr2(rho):
    return CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))


class TestCorrelationMatrix:
    def test_validates_unit_diagonal(self):
        with pytest.raises(DegenerateCorrelation):
            CorrelationMatrix(np.array([[1.0, 0.2], [0.2, 0.999]]))

    def test_rejects_covariance_scale(self):
        with pytest.raises(DegenerateCorrelation):
            CorrelationMatrix(np.array([[4.0, 0.5], [0.5, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(DegenerateCorrelation):
            CorrelationMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(DegenerateCorrelation):
            CorrelationMatrix(np.array([[1.0, 0.5], [0.3, 1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries_first_and_without_a_warning(self, value):
        # a NaN used to pass every test; inf - inf in the symmetry test
        # warned (an error under this suite's warning filter)
        with pytest.raises(DegenerateCorrelation, match="entries must be finite"):
            CorrelationMatrix(np.array([[1.0, value], [value, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            CorrelationMatrix(np.ones((2, 3)))

    def test_values_read_only(self):
        c = corr2(0.5)
        with pytest.raises(ValueError):
            c.values[0, 1] = 0.0


class TestEstimateTraining:
    def test_identical_columns_rejected_by_pd_check(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        with pytest.raises(DegenerateCorrelation):
            estimate_training(np.column_stack([x, x]))

    def test_constant_column(self):
        rng = np.random.default_rng(1)
        data = np.column_stack([rng.standard_normal(40), np.full(40, 3.7)])
        with pytest.raises(ConstantColumn) as err:
            estimate_training(data)
        assert err.value.column == 1

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_rejected_before_any_estimate(self, dim, value):
        # one NaN used to give a NaN correlation at D = 2, and a LAPACK
        # "did not converge" error at D = 3
        data = np.random.default_rng(4).standard_normal((50, dim))
        data[17, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            estimate_training(data)

    @pytest.mark.parametrize("scale, column", [(1e200, 1), (1e154, 0)])
    def test_values_whose_squares_overflow_rejected_before_any_estimate(self, scale, column):
        # 1e200 used to give an infinite sdev after numpy's overflow warning;
        # at 1e154 the squares are finite but their sum over 50 rows is not
        data = np.random.default_rng(4).standard_normal((50, 3))
        data[:, column] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^training data contain values too large: their sums of squares"):
                estimate_training(data)

    def test_large_values_that_sum_safely_are_estimated(self):
        data = np.random.default_rng(4).standard_normal((50, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = estimate_training(data * 1e150)
        small = estimate_training(data)
        assert np.allclose(big.sdev, small.sdev * 1e150, rtol=1e-12)
        assert np.allclose(big.corr.values, small.corr.values, atol=1e-12)

    def test_independent_columns_near_identity(self):
        rng = np.random.default_rng(2)
        summary = estimate_training(rng.standard_normal((10_000, 4)))
        off = summary.corr.values[~np.eye(4, dtype=bool)]
        # Monte Carlo bound ~ 3/sqrt(m)
        assert np.abs(off).max() < 0.05

    def test_known_correlation_recovered(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100_000)
        y = rng.standard_normal(100_000)
        summary = estimate_training(np.column_stack([x, x + y]))
        assert summary.corr.values[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=0.01)

    def test_mle_divisor(self):
        data = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 2.0]])
        summary = estimate_training(data)
        assert np.allclose(summary.sdev, data.std(axis=0, ddof=0))
        assert summary.m == 3


class TestEigensystem:
    def test_two_dim_half_correlation(self):
        es = eigensystem(corr2(0.5))
        assert np.allclose(es.values, [1.5, 0.5])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(es.vectors[:, 0], [s, s])
        # sign convention: tie of magnitudes resolved at the lowest index
        assert np.allclose(es.vectors[:, 1], [s, -s])

    def test_identity_is_isotropic(self):
        es = eigensystem(CorrelationMatrix(np.eye(4)))
        assert np.allclose(es.values, 1.0)

    def test_equicorrelation_spectrum(self):
        r = np.full((3, 3), 0.4)
        np.fill_diagonal(r, 1.0)
        es = eigensystem(CorrelationMatrix(r))
        assert np.allclose(es.values, [1.8, 0.6, 0.6])

    def test_deterministic(self):
        base = random_correlation(8, 0.5, np.random.default_rng(11))
        a = eigensystem(base)
        b = eigensystem(base)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    @pytest.mark.parametrize("dim", [2, 5, 20])
    def test_reconstruction_round_trip(self, dim):
        root = np.random.SeedSequence([19, dim])
        for ss in root.spawn(100):
            base = random_correlation(dim, 1.0, np.random.default_rng(ss))
            es = eigensystem(base)
            recon = (es.vectors * es.values) @ es.vectors.T
            assert np.abs(recon - base.values).max() < 1e-8
            assert np.abs(es.vectors.T @ es.vectors - np.eye(dim)).max() < 1e-8
            assert abs(es.values.sum() - dim) < 1e-8


class TestRandomCorrelation:
    def test_two_dim_valid(self):
        for s in range(20):
            c = random_correlation(2, 0.05, np.random.default_rng(s))
            assert abs(c.values[0, 1]) < 1.0

    def test_concentration_ordering(self):
        def mean_abs_offdiag(alpha, seeds):
            vals = []
            for s in seeds:
                c = random_correlation(20, alpha, np.random.default_rng(s))
                vals.append(np.abs(c.values[np.triu_indices(20, 1)]).mean())
            return np.mean(vals)

        seeds = range(200)
        assert mean_abs_offdiag(50.0, seeds) < mean_abs_offdiag(0.05, seeds)

    def test_deterministic(self):
        a = random_correlation(6, 0.3, np.random.default_rng(42))
        b = random_correlation(6, 0.3, np.random.default_rng(42))
        assert np.array_equal(a.values, b.values)

    def test_validity_sweep(self):
        # ~1000 draws spread over the (dim, alpha_d) grid; construction
        # re-validates every invariant
        combos = [(d, a) for d in (2, 10, 50) for a in (0.05, 1.0, 50.0)]
        per_combo = 112
        for d, a in combos:
            root = np.random.SeedSequence([23, d, int(a * 100)])
            for ss in root.spawn(per_combo):
                random_correlation(d, a, np.random.default_rng(ss))

    @staticmethod
    def skip_vine_draws(rng, n, dim=3, alpha=0.05):
        """Advance ``rng`` past ``n`` vine draws of ``random_correlation(dim, alpha)``."""
        for _ in range(n):
            for lag in range(1, dim):
                b = alpha + (dim - 1 - lag) / 2.0
                rng.beta(b, b, size=dim - lag)
        return rng

    def test_draw_the_repair_used_to_stall_on_is_mended_at_once(self):
        # the first vine draw of this seed has smallest eigenvalue 4e-12;
        # the repair used to stall on it for 100 passes and the draw was
        # redrawn, and it now mends it in one pass
        rng = np.random.default_rng([3, 5, 35])
        c = random_correlation(3, 0.05, rng)
        assert np.linalg.eigvalsh(c.values)[0] >= 1e-10
        once = self.skip_vine_draws(np.random.default_rng([3, 5, 35]), 1)
        assert rng.bit_generator.state == once.bit_generator.state

    def test_draw_the_repair_cannot_mend_is_redrawn(self, monkeypatch):
        # a repair that fails once: the next draw of the same generator is returned
        repair = corrcore.nearest_pd_correlation
        calls = []

        def fails_once(sym, eps):
            calls.append(eps)
            if len(calls) == 1:
                raise NoConvergence("stalled")
            return repair(sym, eps=eps)

        monkeypatch.setattr(corrcore, "nearest_pd_correlation", fails_once)
        rng = np.random.default_rng([3, 5, 35])
        c = random_correlation(3, 0.05, rng)
        assert len(calls) == 2
        monkeypatch.undo()
        second = self.skip_vine_draws(np.random.default_rng([3, 5, 35]), 1)
        assert np.array_equal(c.values, random_correlation(3, 0.05, second).values)
        assert rng.bit_generator.state == second.bit_generator.state

    def test_repaired_draw_keeps_the_single_draw_bits(self):
        # this draw's smallest eigenvalue is 6.5e-12, so it goes through the
        # repair; the entries are the per-matrix reference repair of the
        # first vine draw, with no redraw
        c = random_correlation(3, 0.05, np.random.default_rng([3, 5, 4]))
        assert [c.values[i, j].hex() for i, j in ((0, 1), (0, 2), (1, 2))] == [
            "0x1.ba238cc91a343p-1",
            "-0x1.b97a2eb763039p-1",
            "-0x1.ffff924f5b14fp-1",
        ]
        rng = np.random.default_rng([3, 5, 4])
        pcs = np.zeros((3, 3))
        for lag in (1, 2):
            b = 0.05 + (2 - lag) / 2.0
            i = np.arange(3 - lag)
            pcs[i, i + lag] = np.clip(2.0 * rng.beta(b, b, size=3 - lag) - 1.0, -corrcore._PC_BOUND, corrcore._PC_BOUND)
        ref, passes = ref_nearest_pd(corrcore._dvine_correlation(pcs), corrcore._EIG_SAFEGUARD)
        assert passes == 1
        assert np.array_equal(c.values, ref.values)

    def test_redraws_are_bounded(self, monkeypatch):
        calls = []

        def stalls(sym, eps):
            calls.append(eps)
            raise NoConvergence("stalled")

        monkeypatch.setattr(corrcore, "nearest_pd_correlation", stalls)
        with pytest.raises(NoConvergence, match="vine draw"):
            random_correlation(3, 1.0, np.random.default_rng(0))
        assert len(calls) == corrcore._VINE_DRAWS

    def test_rejects_bad_args(self):
        with pytest.raises(DimensionMismatch):
            random_correlation(1, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            random_correlation(3, 0.0, np.random.default_rng(0))


class TestNearestPdCorrelation:
    def test_valid_input_unchanged(self):
        base = random_correlation(5, 1.0, np.random.default_rng(5))
        out = nearest_pd_correlation(base.values, eps=1e-8)
        assert np.array_equal(out.values, base.values)

    def test_indefinite_repaired(self):
        eps = 1e-8
        out = nearest_pd_correlation(np.array([[1.0, 1.2], [1.2, 1.0]]), eps=eps)
        v = out.values
        assert np.all(np.diag(v) == 1.0)
        assert 1.0 - 1e-6 < v[0, 1] < 1.0
        assert np.linalg.eigvalsh(v)[0] >= eps * (1.0 - 1e-9)

    def test_zero_matrix_becomes_identity(self):
        out = nearest_pd_correlation(np.zeros((3, 3)))
        assert np.allclose(out.values, np.eye(3), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        sym = np.eye(4) + 0.6 * (lambda a: (a + a.T) / 2)(rng.standard_normal((4, 4)))
        np.fill_diagonal(sym, 1.0)
        once = nearest_pd_correlation(sym)
        twice = nearest_pd_correlation(once.values)
        assert np.abs(twice.values - once.values).max() < 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(DimensionMismatch):
            nearest_pd_correlation(np.array([[1.0, 0.5], [0.1, 1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries_first_and_without_a_warning(self, value):
        # NaN used to pass the symmetry test and run 100 repair iterations
        # to NoConvergence; inf made numpy warn in that test first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateCorrelation, match="^entries must be finite$"):
                nearest_pd_correlation([[1.0, value], [value, 1.0]])
            # before the symmetry test, too
            with pytest.raises(DegenerateCorrelation, match="^entries must be finite$"):
                nearest_pd_correlation([[1.0, value], [0.5, 1.0]])
            stack = np.stack([np.eye(3), np.eye(3)])
            stack[1, 2, 2] = value
            with pytest.raises(DegenerateCorrelation, match="^entries must be finite$"):
                nearest_pd_stack(stack)


def repair_passes(a, eps):
    """Passes the one-matrix repair needs: the smallest max_iter that works."""
    for m in range(101):
        try:
            nearest_pd_correlation(a, eps=eps, max_iter=m)
            return m
        except NoConvergence:
            pass
    raise AssertionError("repair did not converge")


def unit_diag_symmetric(d, spread, seed):
    rng = np.random.default_rng(seed)
    a = np.triu(rng.uniform(-spread, spread, (d, d)), 1)
    return np.eye(d) + a + a.T


def repair_inputs(d):
    """Valid matrices, the zero matrix and unit-diagonal symmetric ones, many indefinite."""
    mats = [random_correlation(d, 1.0, np.random.default_rng(s)).values for s in range(3)]
    return mats + [np.eye(d), np.zeros((d, d))] + [unit_diag_symmetric(d, 1.5, s) for s in range(12)]


class TestNearestPdStack:
    @pytest.mark.parametrize("eps, passes_seen", [(1e-8, {0, 1}), (0.2, {0, 1}), (0.9, {0, 1, 2})])
    def test_equals_one_matrix_repair(self, eps, passes_seen):
        # valid inputs come back unchanged after no pass, and up to eps = 1/2
        # one pass mends every other one; above that one pass need not be
        # enough, and matrices that leave the loop at 0, 1 and 2 passes share
        # a stack. Each gets the reference's bits, alone or stacked.
        mats = repair_inputs(8)
        stack = np.stack(mats)
        passes = [repair_passes(m, eps) for m in mats]
        assert set(passes) == passes_seen
        out = nearest_pd_stack(stack, eps=eps)
        for m, o, n in zip(mats, out, passes):
            ref, ref_passes = ref_nearest_pd(m, eps)
            assert ref_passes == n
            assert np.array_equal(o, ref.values)
            assert np.array_equal(o, nearest_pd_correlation(m, eps=eps).values)
            if n == 0:
                assert np.array_equal(o, m)
        assert np.array_equal(stack, np.stack(mats))  # input untouched

    def test_no_convergence_when_any_matrix_needs_more(self):
        eps = 0.9
        mats = [unit_diag_symmetric(8, 1.5, s) for s in range(6)]
        need = max(repair_passes(m, eps) for m in mats)
        assert need == 2
        nearest_pd_stack(np.stack(mats), eps=eps, max_iter=need)
        with pytest.raises(NoConvergence):
            nearest_pd_stack(np.stack(mats), eps=eps, max_iter=need - 1)

    def test_no_pass_allowed(self):
        mats = repair_inputs(5)
        with pytest.raises(NoConvergence, match="0 passes"):
            nearest_pd_stack(np.stack(mats), max_iter=0)
        valid = np.stack(mats[:4])
        assert np.array_equal(nearest_pd_stack(valid, max_iter=0), valid)

    def test_rejects_asymmetric_and_bad_shapes(self):
        good = np.eye(3)
        bad = np.array([[1.0, 0.5, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DimensionMismatch):
            nearest_pd_stack(np.stack([good, bad]))
        with pytest.raises(DimensionMismatch):
            nearest_pd_stack(good)
        with pytest.raises(ValueError):
            nearest_pd_stack(good[None], eps=0.0)


@contextlib.contextmanager
def counted_eigh():
    """Count the ``np.linalg.eigh`` calls of the enclosed block, one per repair pass."""
    calls = []
    eigh = np.linalg.eigh

    def counting(w):
        calls.append(w.shape)
        return eigh(w)

    np.linalg.eigh = counting
    try:
        yield calls
    finally:
        np.linalg.eigh = eigh


def repair_input(draw, d, kind, seed):
    """A symmetric (d, d) test input of one of four kinds, from ``seed``."""
    rng = np.random.default_rng(seed)
    if kind == "valid":
        return random_correlation(d, 1.0, rng).values
    if kind == "uniform":
        return unit_diag_symmetric(d, draw(st.sampled_from([0.5, 1.0, 1.5, 3.0])), seed)
    if kind == "rank_deficient":
        # the correlation of fewer samples than streams: eigenvalues at 0
        x = rng.standard_normal((d, draw(st.integers(1, d - 1))))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        w = x @ x.T
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 1.0)
        return w
    # a valid matrix with some correlations scaled, as a correlation change makes them
    base = random_correlation(d, draw(st.sampled_from([0.05, 0.3, 1.0])), rng).values
    factors = np.triu(rng.uniform(0.0, 1.0, (d, d)), 1)
    keep = np.triu(rng.random((d, d)) < 0.5, 1)
    factors = np.where(keep, 1.0, factors)
    factors = factors + factors.T
    np.fill_diagonal(factors, 1.0)
    return base * factors


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    d=st.integers(2, 40),
    eps=st.sampled_from([1e-10, 1e-8, 0.2]),
    kind=st.sampled_from(["valid", "uniform", "rank_deficient", "changed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_repair_property(data, d, eps, kind, seed):
    # every output is a correlation matrix with eigvalsh's smallest
    # eigenvalue at least eps; valid inputs come back unchanged; a stack
    # gives each matrix its own bits; no input takes more than two passes
    mats = [repair_input(data.draw, d, kind, seed + i) for i in range(3)]
    outs = []
    for m in mats:
        with counted_eigh() as calls:
            out = nearest_pd_correlation(m, eps=eps)
        assert len(calls) <= 2
        assert np.linalg.eigvalsh(out.values)[0] >= eps
        ref, passes = ref_nearest_pd(m, eps)
        assert passes == len(calls)
        assert np.array_equal(out.values, ref.values)
        if kind == "valid" and np.linalg.eigvalsh(m)[0] >= eps:
            assert np.array_equal(out.values, m)
        outs.append(out.values)
    assert np.array_equal(nearest_pd_stack(np.stack(mats), eps=eps), np.stack(outs))


class TestLagLayout:
    """Every entry point that takes a lag with an extended dimension checks it through ``corrcore.raw_dimension``."""

    def test_raw_dimension(self):
        assert corrcore.raw_dimension(6, 0) == 6
        assert corrcore.raw_dimension(6, 1) == 3
        assert corrcore.raw_dimension(6, 5) == 1
        with pytest.raises(DimensionMismatch, match=r"^dimension 6 is not a multiple of lag \+ 1 = 4$"):
            corrcore.raw_dimension(6, 3)
        with pytest.raises(ValueError, match="lag must be non-negative"):
            corrcore.raw_dimension(6, -1)

    @staticmethod
    def entry_points(lag):
        """Each entry point called with a 6-dim layout and ``lag``."""
        base = random_correlation(6, 1.0, np.random.default_rng(0))
        rows = np.random.default_rng(1).standard_normal((40, 6))
        summary = estimate_training(rows)
        selection = identity_selection(6)
        doc = _fileio.selection_document(summary, selection, np.zeros(6), np.ones(6), 1, {})
        doc.update(lag=lag, raw_dim=2)
        sc = ChangeScenario(ctype="mean", affected=(0,), mean_sizes=(1.0,))
        return {
            "tailor": lambda: tailor(base, ChangeDistributionSpec(), 0.9, 10, np.random.default_rng(0), lag=lag),
            "apply_change_lagged": lambda: apply_change_lagged(base, sc, lag),
            "build_monitor_model": lambda: build_monitor_model(summary, selection, rows, lag=lag),
            "restore_monitor_model": lambda: restore_monitor_model(
                summary, selection, np.zeros(6), np.ones(6), lag=lag
            ),
            "parse_selection_document": lambda: _fileio.parse_selection_document(doc, "sel.json"),
        }

    @pytest.mark.parametrize("entry", ["tailor", "apply_change_lagged", "build_monitor_model",
                                       "restore_monitor_model", "parse_selection_document"])
    @pytest.mark.parametrize("lag", [3, 4])
    def test_one_message_at_every_entry_point(self, entry, lag):
        with pytest.raises(DimensionMismatch, match=rf"dimension 6 is not a multiple of lag \+ 1 = {lag + 1}$"):
            self.entry_points(lag)[entry]()

    @pytest.mark.parametrize("entry", ["tailor", "apply_change_lagged", "build_monitor_model",
                                       "restore_monitor_model", "parse_selection_document"])
    def test_negative_lag(self, entry):
        # the document's reader reports it as a dimension fault of the file
        error = DimensionMismatch if entry == "parse_selection_document" else ValueError
        with pytest.raises(error, match="lag must be non-negative"):
            self.entry_points(-1)[entry]()

    def test_document_raw_dimension_must_match_the_layout(self):
        rows = np.random.default_rng(1).standard_normal((40, 6))
        doc = _fileio.selection_document(estimate_training(rows), identity_selection(6), np.zeros(6), np.ones(6), 1, {})
        assert _fileio.parse_selection_document(dict(doc), "sel.json")[4:] == (3, 1)
        with pytest.raises(DimensionMismatch, match="inconsistent dimensions"):
            _fileio.parse_selection_document(dict(doc, raw_dim=2), "sel.json")
