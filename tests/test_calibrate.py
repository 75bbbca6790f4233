import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from tailormon import (
    CalibrationConfig,
    ConfigError,
    ConstantColumn,
    InsufficientReplicates,
    Monitor,
    block_bootstrap_sample,
    build_monitor_model,
    calibrate_threshold,
    eigensystem,
    estimate_training,
    lag_extend_matrix,
    min_variance_selection,
    random_correlation,
    replicate_maximum,
    threshold_from_maxima,
)
from tailormon import calibrate
from tailormon._kernel import stack_size
from tailormon.calibrate import default_threads

import refit_reference


def fitted_model(dim=6, m=90, n_axes=2, window=30, seed=0):
    rng = np.random.default_rng(seed)
    base = random_correlation(dim, 1.0, rng)
    chol = np.linalg.cholesky(base.values)
    train = rng.standard_normal((m, dim)) @ chol.T
    summary = estimate_training(train)
    sel = min_variance_selection(eigensystem(summary.corr), n_axes)
    return build_monitor_model(summary, sel, train, window=window), train, chol


class TestCalibrationConfig:
    def test_alpha_one_rejected(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(alpha=1.0, n=50, confidence=0.95, replicates=1000)

    def test_quantile_estimability_guard(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(alpha=0.01, n=100, confidence=0.95, replicates=100)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            CalibrationConfig(alpha=0.05, n=50, confidence=0.9, replicates=500, mode="magic")


class TestThresholdFromMaxima:
    def test_quantile_invariance_across_alphas(self):
        # one replicate vector serves every alpha: thresholds are its quantiles
        rng = np.random.default_rng(1)
        maxima = rng.gumbel(10.0, 2.0, size=2000)
        ordered = np.sort(maxima)[::-1]
        for alpha in (0.02, 0.05, 0.1):
            b, exceed = threshold_from_maxima(maxima, alpha, 0.5)
            assert b == pytest.approx(0.5 * (ordered[exceed - 1] + ordered[exceed]), abs=1e-12)
            assert exceed / maxima.size <= alpha

    def test_exceedance_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        maxima = rng.normal(size=1000)
        bs = np.linspace(maxima.min(), maxima.max(), 50)
        rates = [(maxima >= b).mean() for b in bs]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_insufficient_replicates(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InsufficientReplicates):
            threshold_from_maxima(rng.normal(size=100), 0.01, 0.95)

    def test_confidence_makes_threshold_conservative(self):
        rng = np.random.default_rng(4)
        maxima = rng.gumbel(size=5000)
        b_median, _ = threshold_from_maxima(maxima, 0.05, 0.5)
        b_conf, _ = threshold_from_maxima(maxima, 0.05, 0.95)
        assert b_conf > b_median


class TestBlockBootstrap:
    def test_full_block_cycles_training(self):
        rng = np.random.default_rng(5)
        train = rng.standard_normal((10, 2))
        out = block_bootstrap_sample(train, 10, 25, rng)
        assert np.array_equal(out, np.vstack([train, train, train[:5]]))

    def test_single_block_is_iid_rows(self):
        rng = np.random.default_rng(6)
        train = np.arange(20.0).reshape(10, 2)
        out = block_bootstrap_sample(train, 1, 500, rng)
        assert set(map(tuple, out)) <= set(map(tuple, train))
        # distribution matches an independently coded iid resampler
        ind_rng = np.random.default_rng(7)
        means_block = [block_bootstrap_sample(train, 1, 10, rng)[:, 0].mean() for _ in range(200)]
        means_iid = [train[ind_rng.integers(0, 10, size=10), 0].mean() for _ in range(200)]
        assert ks_2samp(means_block, means_iid).pvalue > 1e-3

    def test_ar1_autocorrelation_preserved(self):
        rng = np.random.default_rng(8)
        n, phi = 1000, 0.9
        noise = rng.standard_normal((n, 2)) * math.sqrt(1 - phi * phi)
        x = np.zeros((n, 2))
        for i in range(1, n):
            x[i] = phi * x[i - 1] + noise[i]

        def lag1(a):
            a = a - a.mean(axis=0)
            return float((a[1:] * a[:-1]).sum() / (a * a).sum())

        target = lag1(x)
        vals = [lag1(block_bootstrap_sample(x, 50, n, rng)) for _ in range(200)]
        assert abs(np.mean(vals) - target) < 0.1

    def test_block_len_bounds(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ConfigError):
            block_bootstrap_sample(np.zeros((5, 1)), 6, 10, rng)


class TestReplicateMaximum:
    def test_two_step_run_single_candidate(self):
        model, train, chol = fitted_model()
        rng = np.random.default_rng(10)
        synth_train = rng.standard_normal((60, model.raw_dim)) @ chol.T
        synth_mon = rng.standard_normal((2, model.raw_dim)) @ chol.T
        got = replicate_maximum(model, synth_train, synth_mon)
        # reproduce through a monitor on the re-estimated replica
        summary = estimate_training(synth_train)
        sel = min_variance_selection(eigensystem(summary.corr), model.n_streams)
        replica = build_monitor_model(summary, sel, synth_train, window=model.window)
        run = Monitor(replica).run(synth_mon)
        assert got == pytest.approx(run.trace[-1].stat, abs=1e-12)

    def test_deterministic_given_data(self):
        model, train, chol = fitted_model()
        rng = np.random.default_rng(11)
        st = rng.standard_normal((50, model.raw_dim)) @ chol.T
        sm = rng.standard_normal((20, model.raw_dim)) @ chol.T
        assert replicate_maximum(model, st, sm) == replicate_maximum(model, st, sm)

    def test_maxima_grow_with_more_streams(self):
        model2, train, _ = fitted_model(dim=12, m=140, n_axes=2, seed=12)
        summary = estimate_training(train)
        sel10 = min_variance_selection(eigensystem(summary.corr), 10)
        model10 = build_monitor_model(summary, sel10, train, window=model2.window)
        cfg = CalibrationConfig(alpha=0.05, n=20, confidence=0.5, replicates=500, seed=13)
        r2 = calibrate_threshold(model2, train, cfg)
        r10 = calibrate_threshold(model10, train, cfg)
        assert np.median(r10.replicate_maxima) > np.median(r2.replicate_maxima)


class TestCalibrateThreshold:
    def test_exceedance_within_alpha(self):
        model, train, _ = fitted_model()
        cfg = CalibrationConfig(alpha=0.05, n=30, confidence=0.9, replicates=600, seed=14)
        res = calibrate_threshold(model, train, cfg)
        assert res.exceedances / cfg.replicates <= cfg.alpha
        assert np.mean(res.replicate_maxima >= res.threshold) <= cfg.alpha

    def test_deterministic_and_parallel_equal(self):
        model, train, _ = fitted_model()
        cfg = CalibrationConfig(alpha=0.05, n=20, confidence=0.5, replicates=300, seed=15)
        a = calibrate_threshold(model, train, cfg)
        b = calibrate_threshold(model, train, cfg)
        c = calibrate_threshold(model, train, cfg, threads=3)
        assert a.threshold == b.threshold == c.threshold
        assert np.array_equal(a.replicate_maxima, c.replicate_maxima)

    def test_block_mode_and_default_block_len(self):
        model, train, _ = fitted_model()
        cfg = CalibrationConfig(
            alpha=0.05, n=20, confidence=0.5, replicates=300, mode="block_bootstrap", seed=16
        )
        res = calibrate_threshold(model, train, cfg)
        assert res.block_len == 25  # max(25, 2*lag + 2) at lag 0
        assert res.mode == "block_bootstrap"
        assert math.isfinite(res.threshold)

    def test_block_len_longer_than_training_rejected(self):
        model, train, _ = fitted_model()
        cfg = CalibrationConfig(
            alpha=0.05, n=20, confidence=0.5, replicates=300, mode="block_bootstrap", block_len=1000
        )
        with pytest.raises(ConfigError):
            calibrate_threshold(model, train, cfg)

    def test_implied_run_length_scale(self):
        # alpha and horizon imply an average run length of about n / alpha
        cfg = CalibrationConfig(alpha=0.01, n=100, confidence=0.95, replicates=500)
        assert cfg.n / cfg.alpha == pytest.approx(1e4)

    def test_zero_threads_rejected(self):
        model, train, _ = fitted_model()
        cfg = CalibrationConfig(alpha=0.05, n=20, confidence=0.5, replicates=300, seed=15)
        with pytest.raises(ConfigError, match="threads"):
            calibrate_threshold(model, train, cfg, threads=0)


def lagged_model(lag, dim=4, m=90, window=200, seed=20):
    """A two-axis model of lag-extended training rows, and the raw rows."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(random_correlation(dim, 1.0, rng).values)
    raw = rng.standard_normal((m + lag, dim)) @ chol.T
    ext = lag_extend_matrix(raw, lag)
    summary = estimate_training(ext)
    sel = min_variance_selection(eigensystem(summary.corr), 2)
    return build_monitor_model(summary, sel, ext, window=window, lag=lag), raw


def batch_size(model, m_raw, n):
    """How many replicates ``calibrate_threshold`` draws, prepares and scans as one batch.

    The stack rule ``_kernel.stack_size``, given what a replicate holds
    while it is prepared: its drawn rows, and the larger of its training
    and its monitoring stage, each with its lag-extended rows and their
    projections; ``m_raw`` is the raw training length, ``n`` the horizon.
    """
    m = m_raw - model.lag
    held = (m_raw + n + model.lag) * model.raw_dim + max(m, n) * (model.dim + model.n_streams)
    return stack_size(model.n_streams, model.window, n, held)


def replicate_draws(model, raw, mode, n):
    """The draw function of ``mode`` and its arguments before the seed, as ``calibrate_threshold`` sets them up."""
    if mode == calibrate.BLOCK:
        return calibrate._block_draw, (raw, 25)
    summary = estimate_training(raw)
    chol = np.linalg.cholesky(summary.covariance())
    return calibrate._parametric_draw, (summary.mean, chol)


def drawn_alone(draw, shared, seed, m_raw, n_raw, dim):
    """One replicate's raw training and monitoring rows, drawn into arrays of their own."""
    train, mon = np.empty((m_raw, dim)), np.empty((n_raw, dim))
    draw(*shared, seed, train, mon)
    return train, mon


class TestReplicateGroups:
    """``calibrate_threshold`` scans its replicates in stacked batches; no maximum may depend on the batching."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("lag", [0, 1])
    @pytest.mark.parametrize("mode", [calibrate.PARAMETRIC, calibrate.BLOCK])
    def test_maxima_do_not_depend_on_the_replicate_count(self, mode, lag, threads):
        # 7 replicates are part of one batch, 2 batches and a half end in a
        # partial batch, 3 batches fill a third. Spawned seeds do not depend
        # on the count, so the maxima must agree
        model, raw = lagged_model(lag)
        size = batch_size(model, raw.shape[0], 20)
        assert size > 7
        maxima = {}
        counts = (7, 2 * size + size // 2, 3 * size)
        for replicates in counts:
            cfg = CalibrationConfig(alpha=0.8, n=20, confidence=0.5, replicates=replicates, mode=mode, seed=21)
            maxima[replicates] = calibrate_threshold(model, raw, cfg, threads=threads).replicate_maxima
        few, some, full = counts
        assert maxima[some][:few].tobytes() == maxima[few].tobytes()
        assert maxima[full][:few].tobytes() == maxima[few].tobytes()
        assert maxima[full][:some].tobytes() == maxima[some].tobytes()
        assert np.all(np.isfinite(maxima[full]))

    @pytest.mark.parametrize("lag", [0, 1])
    @pytest.mark.parametrize("mode", [calibrate.PARAMETRIC, calibrate.BLOCK])
    def test_each_maximum_is_its_replicate_alone(self, mode, lag):
        model, raw = lagged_model(lag)
        cfg = CalibrationConfig(alpha=0.8, n=20, confidence=0.5, replicates=7, mode=mode, seed=22)
        got = calibrate_threshold(model, raw, cfg, threads=1).replicate_maxima
        draw, shared = replicate_draws(model, raw, mode, cfg.n)
        seeds = np.random.default_rng(cfg.seed).bit_generator.seed_seq.spawn(cfg.replicates)
        alone = [replicate_maximum(model, *drawn_alone(draw, shared, s, raw.shape[0], cfg.n + lag, raw.shape[1]))
                 for s in seeds]
        assert got.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("lag", [0, 1])
    @pytest.mark.parametrize("mode", [calibrate.PARAMETRIC, calibrate.BLOCK])
    def test_the_batch_loop_gives_each_replicate_alone_at_any_batch_size(self, mode, lag):
        # the replicates end in a partial batch at every size, the computed
        # one included
        model, raw = lagged_model(lag)
        n = 20
        computed = batch_size(model, raw.shape[0], n)
        assert computed > 7
        draw, shared = replicate_draws(model, raw, mode, n)
        seeds = np.random.SeedSequence(23).spawn(computed + 11)
        alone = np.array([replicate_maximum(model, *drawn_alone(draw, shared, s, raw.shape[0], n + lag, raw.shape[1]))
                          for s in seeds])
        for batch in (1, 2, 7, computed):
            got = calibrate._batch_maxima(model, draw, shared, (raw.shape[0], n + lag, batch), seeds)
            assert got.tobytes() == alone.tobytes(), f"batch {batch}"

    def test_first_failing_replicate_raises_before_the_next_slice_is_drawn(self, monkeypatch):
        # the last column is constant but for four pairs of rows; a block
        # resample that misses all of them is constant, and estimating it
        # raises ConstantColumn
        raw = np.random.default_rng(24).standard_normal((400, 20))
        raw[:, -1] = 0.5
        for row in (10, 100, 200, 300):
            raw[row:row + 2, -1] = (1.0, -1.0)
        summary = estimate_training(raw)
        model = build_monitor_model(summary, min_variance_selection(eigensystem(summary.corr), 2), raw, window=200)
        cfg = CalibrationConfig(alpha=0.05, n=20, confidence=0.5, replicates=200, mode=calibrate.BLOCK, seed=36)
        seeds = np.random.default_rng(cfg.seed).bit_generator.seed_seq.spawn(cfg.replicates)
        first_bad = None
        for i, s in enumerate(seeds):
            train, mon = drawn_alone(calibrate._block_draw, (raw, 25), s, raw.shape[0], cfg.n, raw.shape[1])
            if np.ptp(train[:, -1]) == 0.0:
                first_bad = i
                break
        with pytest.raises(ConstantColumn) as alone:
            refit_reference.prepare(model, train, mon)
        # replicates are drawn, prepared and scanned in batches (15 here):
        # the failing replicate sits inside a batch after the first
        size = batch_size(model, raw.shape[0], cfg.n)
        end = (first_bad // size + 1) * size
        assert size < first_bad and first_bad % size
        drawn = []
        draw = calibrate._block_draw

        def counting(*args):
            drawn.append(args[-3])  # the seed, before the two slots
            return draw(*args)

        monkeypatch.setattr(calibrate, "_block_draw", counting)
        for threads in (1, 2):
            with pytest.raises(ConstantColumn) as raised:
                calibrate_threshold(model, raw, cfg, threads=threads)
            assert raised.value.column == alone.value.column == raw.shape[1] - 1
            assert str(raised.value) == str(alone.value)
            if threads == 1:
                # every replicate of the failing batch is drawn, and none after it
                assert [s.spawn_key for s in drawn] == [s.spawn_key for s in seeds[:end]]
            monkeypatch.undo()

    @pytest.mark.parametrize("mode", [calibrate.PARAMETRIC, calibrate.BLOCK])
    def test_a_draw_writes_its_replicates_rows_into_its_slots(self, mode):
        # parametric: the normal rows times the Cholesky factor plus the
        # mean, the first m_raw for training; block: two resamples, training first
        model, raw = lagged_model(1)
        draw, shared = replicate_draws(model, raw, mode, 20)
        seed = np.random.SeedSequence(25)
        m_raw, n_raw = raw.shape[0], 21
        train, mon = np.full((2, m_raw, raw.shape[1]), np.nan), np.full((2, n_raw, raw.shape[1]), np.nan)
        draw(*shared, seed, train[1], mon[1])
        rng = np.random.default_rng(seed)
        if mode == calibrate.BLOCK:
            expected = np.concatenate([block_bootstrap_sample(raw, 25, m_raw, rng),
                                       block_bootstrap_sample(raw, 25, n_raw, rng)])
        else:
            mean, chol = shared
            expected = mean + rng.standard_normal((m_raw + n_raw, raw.shape[1])) @ chol.T
        assert np.isnan(train[0]).all() and np.isnan(mon[0]).all()
        assert train[1].tobytes() == expected[:m_raw].tobytes()
        assert mon[1].tobytes() == expected[m_raw:].tobytes()


class TestDefaultThreads:
    def test_environment_read(self, monkeypatch):
        monkeypatch.delenv("TAILORMON_THREADS", raising=False)
        assert default_threads() == 1
        monkeypatch.setenv("TAILORMON_THREADS", "3")
        assert default_threads() == 3

    @pytest.mark.parametrize("value", ["two", "1.5", "", "0", "-2"])
    def test_bad_value_rejected(self, monkeypatch, value):
        monkeypatch.setenv("TAILORMON_THREADS", value)
        with pytest.raises(ConfigError, match="TAILORMON_THREADS"):
            default_threads()
