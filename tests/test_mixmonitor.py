import math

import numpy as np
import pytest

import tailormon._kernel as kernel_mod
from tailormon import (
    CalibrationConfig,
    DegenerateSegment,
    DimensionMismatch,
    InsufficientHistory,
    Monitor,
    StreamStats,
    bartlett_correction,
    build_monitor_model,
    calibrate_threshold,
    eigensystem,
    estimate_training,
    identity_selection,
    lag_extend_matrix,
    min_variance_selection,
    mixture_statistic,
    project_observation,
    random_correlation,
    stream_llr,
)


def digamma_oracle(x: float) -> float:
    """Recurrence plus asymptotic series, independent of scipy."""
    acc = 0.0
    while x < 16.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 * (1 / 240 - inv2 * (1 / 132))))
    return acc + math.log(x) - 0.5 / x - inv2 * series


def bartlett_oracle(m, k, t):
    def g(a):
        return a * math.log(a) - a * digamma_oracle((a - 1) / 2.0)

    return 0.5 * (g(m + k) + g(t - k) - g(m + t))


def make_model(dim=5, m=120, n_axes=3, window=50, p0=1.0, seed=0, threshold=math.inf, alpha_d=1.0):
    rng = np.random.default_rng(seed)
    base = random_correlation(dim, alpha_d, rng)
    chol = np.linalg.cholesky(base.values)
    train = rng.standard_normal((m, dim)) @ chol.T
    summary = estimate_training(train)
    sel = min_variance_selection(eigensystem(summary.corr), n_axes)
    model = build_monitor_model(summary, sel, train, p0=p0, window=window, threshold=threshold)
    return model, base, chol, rng


class TestBartlettCorrection:
    @pytest.mark.parametrize("mkt", [(200, 0, 100), (50, 10, 40), (20, 0, 10)])
    def test_matches_digamma_oracle(self, mkt):
        m, k, t = mkt
        assert bartlett_correction(m, k, t) == pytest.approx(bartlett_oracle(m, k, t), abs=1e-10)

    def test_symmetric_in_segment_lengths(self):
        # {m+k, t-k} = {35, 20} with m+t = 55 on both sides
        assert bartlett_correction(30, 5, 25) == pytest.approx(bartlett_correction(20, 0, 35), abs=1e-12)

    @pytest.mark.parametrize("n1", [500, 750, 1000])
    @pytest.mark.parametrize("n2", [500, 750, 1000])
    def test_tends_to_one(self, n1, n2):
        assert abs(bartlett_correction(n1, 0, n2) - 1.0) < 0.02

    def test_positive_in_range(self):
        for m, k, t in [(2, 0, 2), (5, 3, 10), (300, 100, 250)]:
            assert bartlett_correction(m, k, t) > 0.0

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            bartlett_correction(10, 9, 10)


class TestStreamLlr:
    @staticmethod
    def make_stats(train_values, window=10):
        train = np.atleast_2d(np.asarray(train_values, dtype=float).T).T
        stats = StreamStats(
            train_sum=train.sum(axis=0),
            train_sumsq=(train * train).sum(axis=0),
            m=train.shape[0],
            window=window,
        )
        return stats

    def test_zero_when_segments_identical(self):
        stats = self.make_stats([[1.0], [-1.0], [1.0], [-1.0]])
        stats.append(np.array([1.0]))
        stats.append(np.array([-1.0]))
        assert stream_llr(stats, 0)[0] == 0.0

    def test_matches_two_pass_oracle(self):
        training = np.array([1.0, -1.0, 1.0, -1.0])
        monitoring = np.array([3.0, -3.0, 3.0, -3.0])
        stats = self.make_stats(training[:, None], window=10)
        for v in monitoring:
            stats.append(np.array([v]))
        got = stream_llr(stats, 0)[0]

        def mle_var(a):
            return float(np.var(a))

        pooled = np.concatenate([training, monitoring])
        expected = 0.5 * (
            pooled.size * math.log(mle_var(pooled))
            - training.size * math.log(mle_var(training))
            - monitoring.size * math.log(mle_var(monitoring))
        )
        assert got == pytest.approx(expected, abs=1e-10)
        assert got >= 0.0

    def test_null_mean_is_twice_the_correction(self):
        # E[2*llr] = 2*C(k, t) exactly under the null, so the corrected
        # statistic has mean 2 (the chi-square_2 limit) for every (m, k, t)
        m, k, t = 50, 10, 40
        reps = 10_000
        rng = np.random.default_rng(123)
        train = rng.standard_normal((m, reps))
        stats = StreamStats(
            train_sum=train.sum(axis=0), train_sumsq=(train * train).sum(axis=0), m=m, window=t + 2
        )
        for _ in range(t):
            stats.append(rng.standard_normal(reps))
        ll = stream_llr(stats, k)
        ratio = np.mean(2.0 * ll) / bartlett_correction(m, k, t)
        assert ratio == pytest.approx(2.0, abs=0.1)

    def test_degenerate_segment_raises_without_clamp(self):
        stats = self.make_stats([[1.0], [-1.0], [1.0], [-1.0]])
        stats.append(np.array([2.0]))
        stats.append(np.array([2.0]))
        with pytest.raises(DegenerateSegment):
            stream_llr(stats, 0)

    def test_clamped_variant_is_finite(self):
        stats = self.make_stats([[1.0], [-1.0], [1.0], [-1.0]])
        stats.append(np.array([2.0]))
        stats.append(np.array([2.0]))
        val = stream_llr(stats, 0, clamp=True)[0]
        assert math.isfinite(val)
        assert val > 0.0  # a variance collapse is strong evidence of change


class TestMixtureStatistic:
    def test_zero_llrs(self):
        assert mixture_statistic(np.zeros(5), 1.3, 0.4) == 0.0

    def test_p0_one_reduces_to_sum(self):
        llrs = np.array([0.3, 1.2, 2.5])
        assert mixture_statistic(llrs, 2.0, 1.0) == pytest.approx(llrs.sum() / 2.0, abs=1e-14)

    def test_single_stream_value(self):
        got = mixture_statistic(np.array([2.0]), 1.0, 0.3)
        assert got == pytest.approx(math.log(0.7 + 0.3 * math.exp(2.0)), abs=1e-14)
        assert got == pytest.approx(1.07046, abs=1e-5)

    def test_overflow_safe(self):
        big = mixture_statistic(np.array([5000.0]), 1.0, 0.5)
        assert big == pytest.approx(5000.0 + math.log(0.5), abs=1e-9)

    def test_monotone_in_llr_and_p0(self):
        base = mixture_statistic(np.array([1.0, 2.0]), 1.0, 0.5)
        assert mixture_statistic(np.array([1.5, 2.0]), 1.0, 0.5) > base
        assert mixture_statistic(np.array([1.0, 2.0]), 1.0, 0.8) > base

    def test_invalid_p0(self):
        with pytest.raises(ValueError):
            mixture_statistic(np.ones(2), 1.0, 0.0)

    @pytest.mark.parametrize(
        "llr, correction, p0, expected",
        [
            (-1.0, 1.0, 0.5, -0.3798854930417225),
            (0.0, 1.0, 0.5, 0.0),
            (2.0, 1.0, 0.5, 1.4337808304830273),
            (-1.0, 1.0, 1.0, -1.0),
            (-1.0, 2.0, 0.01, -0.003942454674466584),
            (2.0, 2.0, 0.01, 0.01703686323617659),
        ],
    )
    def test_scalar_llr(self, llr, correction, p0, expected):
        # a bare float, not an array, on both sides of zero
        assert mixture_statistic(llr, correction, p0) == expected


class TestLagExtend:
    def test_zero_lag_identity(self):
        x = np.arange(4.0)
        assert np.array_equal(lag_extend_matrix([x], 0), [x])

    def test_dimension_52_times_6(self):
        history = [np.full(52, float(i)) for i in range(6)]
        out = lag_extend_matrix(history, 5)
        assert out.shape == (1, 312)
        # oldest block first
        assert np.array_equal(out[0, :52], history[0])
        assert np.array_equal(out[0, -52:], history[-1])

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            lag_extend_matrix([np.zeros(3)], 1)

    def test_each_row_concatenates_its_window_oldest_first(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((9, 3))
        ext = lag_extend_matrix(data, 2)
        assert ext.shape == (7, 9)
        for i in range(7):
            assert np.array_equal(ext[i], np.concatenate(data[i : i + 3]))

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="lag must be non-negative"):
            lag_extend_matrix(np.zeros((4, 3)), -1)


class TestProjectObservation:
    def test_training_mean_maps_to_zero(self):
        model, _, _, _ = make_model()
        z = project_observation(model, model.training.mean)
        assert np.array_equal(z, np.zeros(model.n_streams))

    def test_training_projections_standardized(self):
        model, _, _, _ = make_model(dim=6, m=200, n_axes=6)
        z = model.training_projections
        assert np.abs(z.var(axis=0, ddof=0) - 1.0).max() < 1e-8
        corr = (z - z.mean(axis=0)).T @ (z - z.mean(axis=0)) / z.shape[0]
        off = corr[~np.eye(6, dtype=bool)]
        assert np.abs(off).max() < 1e-8

    def test_dimension_checked(self):
        model, _, _, _ = make_model()
        with pytest.raises(DimensionMismatch):
            project_observation(model, np.zeros(model.dim + 1))


class TestMonitor:
    def test_infinite_threshold_never_alarms(self):
        model, _, chol, rng = make_model(threshold=math.inf)
        stream = rng.standard_normal((300, model.raw_dim)) @ chol.T
        run = Monitor(model).run(stream)
        assert not run.alarmed and run.censored
        assert run.steps == 300

    def test_first_step_has_no_candidates(self):
        model, _, chol, rng = make_model()
        res = Monitor(model).step(rng.standard_normal(model.raw_dim) @ chol.T)
        assert res.t == 1
        assert res.stat == -math.inf
        assert res.argmax_k is None and not res.alarm

    def test_empty_stream_censored(self):
        model, _, _, _ = make_model()
        run = Monitor(model).run([])
        assert run.censored and run.trace == () and run.steps == 0

    def test_replay_identical(self):
        model, _, chol, rng = make_model(threshold=12.0)
        stream = rng.standard_normal((150, model.raw_dim)) @ chol.T
        a = Monitor(model).run(stream)
        b = Monitor(model).run(stream)
        assert a.alarm_time == b.alarm_time
        assert [r.stat for r in a.trace] == [r.stat for r in b.trace]
        assert [r.argmax_k for r in a.trace] == [r.argmax_k for r in b.trace]

    def test_candidate_set_bounds(self):
        model, _, chol, rng = make_model(window=20)
        mon = Monitor(model)
        for i, x in enumerate(rng.standard_normal((60, model.raw_dim)) @ chol.T):
            res = mon.step(x)
            t = i + 1
            if t >= 2:
                assert max(0, t - model.window - 1) <= res.argmax_k <= t - 2

    def test_kept_window_bounded(self):
        # w + 1 rows are kept, in an array of their own: a trace scan's
        # tail is a view into its whole block, which the monitor must not keep
        model, _, chol, rng = make_model(window=16)
        stepped, fed = Monitor(model), Monitor(model)
        rows = rng.standard_normal((300, model.raw_dim)) @ chol.T
        for x in rows[:100]:
            stepped.step(x)
        fed.feed(rows)
        for mon in (stepped, fed):
            kept = mon.stats.window_values()
            assert kept.shape == (17, model.n_streams)
            owner = kept if kept.base is None else kept.base
            assert owner.nbytes == kept.nbytes

    def test_five_sigma_shift_alarms_fast(self):
        # calibrated threshold, then 500 replicates of an extreme shift
        model, base, chol, _ = make_model(dim=10, m=200, n_axes=10, window=50, seed=42)
        model_id = build_monitor_model(
            model.training, identity_selection(10), _training_rows(model), p0=1.0, window=50
        )
        cfg = CalibrationConfig(alpha=0.05, n=50, confidence=0.9, replicates=500, seed=9)
        result = calibrate_threshold(model_id, _training_rows(model), cfg)
        armed = model_id.with_threshold(result.threshold)
        hits = 0
        for ss in np.random.SeedSequence(77).spawn(500):
            rng = np.random.default_rng(ss)
            stream = 5.0 + rng.standard_normal((5, 10)) @ chol.T
            run = Monitor(armed).run(stream)
            hits += run.alarmed
        assert hits >= 0.99 * 500

    def test_warnings_counted_for_constant_stream(self):
        model, _, _, _ = make_model(threshold=math.inf)
        mon = Monitor(model)
        res = None
        for _ in range(5):
            res = mon.step(model.training.mean)
        assert res.warnings > 0
        assert mon.total_warnings > 0
        assert math.isfinite(res.stat)


def _training_rows(model):
    # raw training rows reconstructed from the stored standardized projections
    # are not available in general; tests keep models at lag 0 where the raw
    # data equals what build_monitor_model consumed, so regenerate it
    rng = np.random.default_rng(42)
    base = random_correlation(10, 1.0, rng)
    chol = np.linalg.cholesky(base.values)
    return rng.standard_normal((200, 10)) @ chol.T


class TestConsistencyWithNaiveRecomputation:
    def test_segment_stats_match_full_history(self):
        model, _, chol, rng = make_model(dim=4, m=80, n_axes=4, window=40, seed=3)
        mon = Monitor(model)
        history = []
        check_rng = np.random.default_rng(99)
        for i in range(1000):
            x = rng.standard_normal(4) @ chol.T
            history.append(project_observation(model, x))
            mon.step(x)
            t = i + 1
            if t >= 2 and check_rng.random() < 0.03:
                k = int(check_rng.integers(max(0, t - model.window - 1), t - 1))
                (n1, s1, q1), (n2, s2, q2), (nt, st_, qt) = mon.stats.segment_stats(k)
                z = np.asarray(history)
                ztr = model.training_projections
                seg2 = z[k:t]
                assert n2 == t - k and nt == model.m + t
                assert np.abs(s2 - seg2.sum(axis=0)).max() < 1e-9
                assert np.abs(q2 - (seg2 * seg2).sum(axis=0)).max() < 1e-9
                full = np.vstack([ztr, z])
                assert np.abs(st_ - full.sum(axis=0)).max() < 1e-9
                assert np.abs(s1 - (ztr.sum(axis=0) + z[:k].sum(axis=0))).max() < 1e-9

    def test_p0_one_reduces_to_sum_glr(self):
        # independently coded, unmixed sum-of-streams GLR
        model, _, chol, rng = make_model(dim=5, m=100, n_axes=3, window=30, seed=5)
        steps = 300
        stream = rng.standard_normal((steps, 5)) @ chol.T
        mon = Monitor(model)
        got = [mon.step(x).stat for x in stream]

        ztr = model.training_projections
        zs = np.array([project_observation(model, x) for x in stream])
        expected = []
        for t in range(1, steps + 1):
            if t < 2:
                expected.append(-math.inf)
                continue
            best = -math.inf
            for k in range(max(0, t - model.window - 1), t - 1):
                c = bartlett_correction(model.m, k, t)
                total = 0.0
                for j in range(model.n_streams):
                    seg1 = np.concatenate([ztr[:, j], zs[:k, j]])
                    seg2 = zs[k:t, j]
                    seg_all = np.concatenate([seg1, seg2])
                    ll = 0.5 * (
                        seg_all.size * math.log(seg_all.var())
                        - seg1.size * math.log(seg1.var())
                        - seg2.size * math.log(seg2.var())
                    )
                    total += ll / c
                best = max(best, total)
            expected.append(best)
        finite = [i for i in range(steps) if math.isfinite(expected[i])]
        diffs = [abs(got[i] - expected[i]) for i in finite]
        assert max(diffs) < 1e-9


class TestOperationCount:
    @pytest.mark.parametrize("n_axes", [5, 20])
    @pytest.mark.parametrize("window", [50, 200])
    def test_steady_state_cost_is_window_times_streams(self, n_axes, window, monkeypatch):
        model, _, chol, rng = make_model(dim=20, m=150, n_axes=n_axes, window=window, seed=8)
        counts = []
        real = kernel_mod.scan_step

        def counting(*args):
            window_vals, cvals = args[5], args[9]
            counts.append(len(cvals) * window_vals.shape[1])
            return real(*args)

        monkeypatch.setattr(kernel_mod, "scan_step", counting)
        mon = Monitor(model)
        for x in rng.standard_normal((window + 30, 20)) @ chol.T:
            mon.step(x)
        steady = counts[-10:]
        assert all(c == window * n_axes for c in steady)


class TestLaggedMonitor:
    def test_first_lag_steps_unmonitored(self):
        rng = np.random.default_rng(13)
        raw = rng.standard_normal((120, 3))
        lag = 2
        ext = lag_extend_matrix(raw, lag)
        summary = estimate_training(ext)
        sel = min_variance_selection(eigensystem(summary.corr), 3)
        model = build_monitor_model(summary, sel, ext, window=30, lag=lag)
        mon = Monitor(model)
        results = [mon.step(x) for x in rng.standard_normal((40, 3))]
        assert all(r.stat == -math.inf for r in results[: lag + 1])
        assert math.isfinite(results[lag + 2].stat)
        # raw-time candidates sit at least lag steps in
        assert all(r.argmax_k >= lag for r in results if r.argmax_k is not None)


@pytest.mark.parametrize("lag", [0, 2])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e200])
def test_non_finite_row_rejected_before_state_changes(lag, bad):
    # a rejected row must leave the lag history, the ring buffer and the
    # running sums as they were, so the monitor carries on exactly like
    # one that never saw it
    rng = np.random.default_rng(31)
    ext = lag_extend_matrix(rng.standard_normal((150, 3)), lag)
    summary = estimate_training(ext)
    sel = min_variance_selection(eigensystem(summary.corr), 2)
    model = build_monitor_model(summary, sel, ext, window=20, lag=lag)
    clean, probed = Monitor(model), Monitor(model)
    rows = rng.standard_normal((40, 3))
    rows[25:] += 3.0
    for i, x in enumerate(rows):
        if i in (0, 6, 30):
            poisoned = x.copy()
            poisoned[1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                probed.step(poisoned)
        assert probed.step(x) == clean.step(x)
    assert probed.t == clean.t == 40
    assert probed.total_warnings == clean.total_warnings


@pytest.mark.parametrize("lag", [0, 1])
def test_row_whose_projection_squares_to_infinity_rejected(lag):
    # training on a small scale makes the projector large: 1.3e154 squares
    # to a finite value, its projection does not
    rng = np.random.default_rng(33)
    ext = lag_extend_matrix(1e-3 * rng.standard_normal((150, 3)), lag)
    summary = estimate_training(ext)
    model = build_monitor_model(summary, min_variance_selection(eigensystem(summary.corr), 2), ext, window=20, lag=lag)
    rows = 1e-3 * rng.standard_normal((30, 3))
    poisoned = rows[12].copy()
    poisoned[0] = 1.3e154
    assert math.isfinite(poisoned[0] * poisoned[0])
    clean, probed, fed = Monitor(model), Monitor(model), Monitor(model)
    for x in rows[:12]:
        assert probed.step(x) == clean.step(x)
    with pytest.raises(ValueError, match="projects to a value whose square is non-finite"):
        probed.step(poisoned)
    block = rows.copy()
    block[12] = poisoned
    with pytest.raises(ValueError, match="projects to a value whose square is non-finite"):
        fed.feed(block)
    assert fed.t == 0 and fed.stats.t == 0 and len(fed._raw_history) == 0
    assert [probed.step(x) for x in rows[12:]] == [clean.step(x) for x in rows[12:]]
    ref = Monitor(model)
    assert fed.feed(rows) == [ref.step(x) for x in rows]


def test_lagged_monitor_copies_reused_row_buffer():
    # a reader that refills one buffer per row must see the same statistics
    # as one that hands over fresh rows
    rng = np.random.default_rng(32)
    ext = lag_extend_matrix(rng.standard_normal((150, 3)), 1)
    summary = estimate_training(ext)
    sel = min_variance_selection(eigensystem(summary.corr), 2)
    model = build_monitor_model(summary, sel, ext, window=20, lag=1)
    fresh, reused = Monitor(model), Monitor(model)
    buf = np.empty(3)
    rows = rng.standard_normal((40, 3))
    rows[25:] += 2.0
    for x in rows:
        buf[:] = x
        assert reused.step(buf) == fresh.step(x.copy())
