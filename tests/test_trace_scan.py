"""The whole-trace scan against the per-step scan it replaces.

``scan_trace`` must reproduce a ``StreamStats`` + reference ``scan_step``
loop bit for bit, and the calibration replicates and simulated trials
built on it must match a per-step monitor exactly. The per-step side runs
``tests/scan_reference.py``, not the library's ``scan_step``, which shares
its cell scan with ``scan_trace``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailormon as tm
from scan_reference import scan_step as reference_step
from tailormon import _kernel, calibrate, evalharness, mixmonitor
from tailormon._kernel._scan_py import _block_end
from tailormon.mixmonitor import VAR_FLOOR, StreamStats, _BartlettTable


def step_loop(z, train_sum, train_sumsq, m, window, p0, var_floor=VAR_FLOOR):
    """(stat, argmax_k, clamps) of every step of ``z`` through the reference kernel."""
    stats = StreamStats(train_sum=train_sum.copy(), train_sumsq=train_sumsq.copy(), m=m, window=window)
    table = _BartlettTable()
    out, ks, clamps = [], [], 0
    for row in z:
        stats.append(row)
        t = stats.t
        if t < 2:
            out.append(-math.inf)
            ks.append(-1)
            continue
        kmin = max(0, t - window - 1)
        s, k, clamped = reference_step(
            stats.train_sum,
            stats.train_sumsq,
            m,
            stats.run_sum,
            stats.run_sumsq,
            np.ascontiguousarray(stats.window_values()),
            t,
            kmin,
            p0,
            table.cvals(m, t, kmin),
            var_floor,
        )
        out.append(s)
        ks.append(k)
        clamps += clamped
    return np.array(out), np.array(ks), clamps


def trace(z, train_sum, train_sumsq, m, window, p0, threshold=None, var_floor=VAR_FLOOR):
    h = _BartlettTable().upto(m + z.shape[0])
    stat, k, _, _ = _kernel.scan_trace(z, train_sum, train_sumsq, m, window, p0, h, var_floor, threshold)
    return stat, k


def random_trace(seed, T, J, m=60, constant_column=False):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((T, J))
    z[T // 2:] *= 1.5
    if constant_column:
        z[:, 0] = 0.25
    return z, rng.standard_normal(J) * 0.2, m + rng.standard_normal(J)


@pytest.fixture
def reference_step_kernel(monkeypatch):
    """Monitor.step on the reference kernel."""
    monkeypatch.setattr(_kernel, "scan_step", reference_step)


@pytest.mark.parametrize(
    "T, J, window",
    [
        (1, 3, 10),  # a single step: no candidate
        (7, 3, 10),  # T < w + 1: the window never fills
        (400, 3, 20),  # T >> w + 1
        (60, 2, 2),  # the shortest window
        (300, 1, 40),
        (250, 20, 30),
        # either side of numpy's 8-way pairwise row sum, which the
        # stream-major scan reproduces from 8 streams on
        (90, 7, 25),
        (90, 8, 25),
        (90, 9, 25),
        (90, 16, 25),
        (90, 17, 25),
    ],
)
@pytest.mark.parametrize("p0", [1.0, 0.1])
def test_scan_trace_bitwise_equal_to_step_loop(T, J, window, p0):
    z, ts, tq = random_trace(T * 31 + J, T, J)
    stat, k = trace(z, ts, tq, 60, window, p0)
    ref, ref_k, _ = step_loop(z, ts, tq, 60, window, p0)
    assert np.array_equal(stat, ref)
    assert np.array_equal(k, ref_k)


@pytest.mark.parametrize("p0", [1.0, 0.1])
def test_constant_column_clamps_bitwise(p0):
    z, ts, tq = random_trace(5, 120, 3, constant_column=True)
    stat, k = trace(z, ts, tq, 60, 15, p0)
    ref, ref_k, clamps = step_loop(z, ts, tq, 60, 15, p0)
    assert clamps > 0
    assert np.array_equal(stat, ref)
    assert np.array_equal(k, ref_k)


def test_ties_go_to_the_smallest_k():
    # with every variance clamped to a floor of 1, every llr is exactly 0
    # and every candidate ties
    z = 0.1 * np.random.default_rng(8).standard_normal((80, 2))
    ts, tq = np.zeros(2), np.full(2, 0.5)
    stat, k = trace(z, ts, tq, 60, 15, 1.0, var_floor=1.0)
    ref, ref_k, _ = step_loop(z, ts, tq, 60, 15, 1.0, var_floor=1.0)
    assert np.array_equal(stat, ref)
    assert np.array_equal(k, ref_k)
    assert np.all(stat[1:] == 0.0)
    assert k[1:].tolist() == [max(0, t - 16) for t in range(2, 81)]


def test_threshold_stops_after_the_crossing_block():
    z, ts, tq = random_trace(6, 600, 2)
    z[300:, 0] += 1.0
    ref, ref_k, _ = step_loop(z, ts, tq, 60, 25, 1.0)
    ends = [_block_end(2, 600, 2, 25)]
    while ends[-1] <= 600:
        ends.append(_block_end(ends[-1], 600, 2, 25))
    # thresholds equal to a block's largest statistic test the crossing itself
    block_max = [ref[: e - 1].max() for e in ends[:4]]
    for threshold in [*block_max, *np.quantile(ref[1:], [0.5, 0.8, 0.9, 0.95, 0.99])]:
        first_t = int(np.flatnonzero(ref >= threshold)[0]) + 1
        stat, k = trace(z, ts, tq, 60, 25, 1.0, threshold)
        # the scan ends with the block that holds the first crossing
        assert stat.shape[0] == min(e for e in ends if e > first_t) - 1 < 600
        assert np.array_equal(stat, ref[: stat.shape[0]])
        assert np.array_equal(k, ref_k[: stat.shape[0]])
    # a threshold nothing reaches scans the whole trace
    stat, _ = trace(z, ts, tq, 60, 25, 1.0, math.inf)
    assert np.array_equal(stat, ref)


def fitted(lag, p0=1.0, window=25, dim=4, m=80, seed=0):
    rng = np.random.default_rng(seed)
    base = tm.random_correlation(dim, 1.0, rng)
    chol = np.linalg.cholesky(base.values)
    raw = rng.standard_normal((m + lag, dim)) @ chol.T
    ext = tm.lag_extend_matrix(raw, lag)
    summary = tm.estimate_training(ext)
    sel = tm.min_variance_selection(tm.eigensystem(summary.corr), 2)
    model = tm.build_monitor_model(summary, sel, ext, p0=p0, window=window, lag=lag)
    return model, raw, chol, rng


def monitor_stats(model, rows):
    """(stat, argmax_k) of every raw step through ``Monitor.step``."""
    mon = tm.Monitor(model)
    steps = [mon.step(x) for x in rows]
    return (
        np.array([s.stat for s in steps]),
        np.array([-1 if s.argmax_k is None else s.argmax_k for s in steps]),
    )


@pytest.mark.parametrize("lag", [0, 2])
@pytest.mark.parametrize("p0", [1.0, 0.3])
def test_trace_stats_equal_monitor_steps(reference_step_kernel, lag, p0):
    model, _, chol, rng = fitted(lag, p0)
    rows = rng.standard_normal((90, chol.shape[0])) @ chol.T
    stat, k = mixmonitor.trace_stats(model, rows)
    ref, ref_k = monitor_stats(model, rows)
    assert np.array_equal(stat, ref)
    assert np.array_equal(k, ref_k)


def test_trace_stats_rejects_bad_rows():
    model, _, chol, rng = fitted(1)
    rows = rng.standard_normal((10, chol.shape[0]))
    for bad in (math.nan, 1e200):
        poisoned = rows.copy()
        poisoned[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            mixmonitor.trace_stats(model, poisoned)
    rows[4, 1] = math.nan
    with pytest.raises(tm.DimensionMismatch):
        mixmonitor.trace_stats(model, rows[:, :2])
    stat, k = mixmonitor.trace_stats(model, rows[:1])
    assert stat.tolist() == [-math.inf] and k.tolist() == [-1]


def replicate_reference(model, train_synth, monitor_synth):
    """``replicate_maximum`` written out step by step on the reference kernel."""
    ext = tm.lag_extend_matrix(np.asarray(train_synth, dtype=float), model.lag)
    summary = tm.estimate_training(ext)
    sel = tm.manual_selection(tm.eigensystem(summary.corr), model.selection.indices)
    replica = tm.build_monitor_model(summary, sel, ext, p0=model.p0, window=model.window, lag=model.lag)
    stats = StreamStats(
        train_sum=replica.train_sum, train_sumsq=replica.train_sumsq, m=replica.m, window=replica.window
    )
    history = []
    table = _BartlettTable()
    best = -math.inf
    for x in monitor_synth:
        history.append(x)
        if len(history) < model.lag + 1:
            continue
        stats.append(tm.project_observation(replica, tm.lag_extend(history, model.lag)))
        t = stats.t
        if t < 2:
            continue
        kmin = max(0, t - replica.window - 1)
        s, _, _ = reference_step(
            stats.train_sum, stats.train_sumsq, stats.m, stats.run_sum, stats.run_sumsq,
            np.ascontiguousarray(stats.window_values()), t, kmin, replica.p0, table.cvals(stats.m, t, kmin),
            VAR_FLOOR,
        )
        best = max(best, s)
    return best


@pytest.mark.parametrize("lag", [0, 1])
@pytest.mark.parametrize("mode", [calibrate.PARAMETRIC, calibrate.BLOCK])
def test_replicate_maximum_equals_step_reference(lag, mode):
    model, raw, chol, _ = fitted(lag, p0=0.5)
    got, ref = [], []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        if mode == calibrate.BLOCK:
            train = calibrate.block_bootstrap_sample(raw, 10, raw.shape[0], rng)
            mon = calibrate.block_bootstrap_sample(raw, 10, 50 + lag, rng)
        else:
            draws = rng.standard_normal((raw.shape[0] + 50 + lag, raw.shape[1])) @ chol.T
            train, mon = draws[: raw.shape[0]], draws[raw.shape[0]:]
        got.append(tm.replicate_maximum(model, train, mon))
        ref.append(replicate_reference(model, train, mon))
    assert np.array_equal(got, ref)


def test_replicates_and_trials_construct_no_monitor(monkeypatch):
    model, raw, chol, rng = fitted(0)

    def refuse(self, model):
        raise AssertionError("a Monitor was constructed")

    monkeypatch.setattr(mixmonitor.Monitor, "__init__", refuse)
    tm.replicate_maximum(model, raw, rng.standard_normal((30, raw.shape[1])))
    base = tm.CorrelationMatrix(chol @ chol.T)
    evalharness.run_prepared_trial(model.with_threshold(10.0), base, 0, None, 40, rng)


@pytest.mark.parametrize(
    "threshold, scenario, horizon",
    [
        (math.inf, None, 120),  # censored
        (12.0, None, 120),
        (12.0, tm.ChangeScenario(ctype="mean", affected=(0, 2), mean_sizes=(3.0, 3.0)), 600),  # early exit
    ],
)
def test_run_prepared_trial_alarm_equals_monitor_run(reference_step_kernel, monkeypatch, threshold, scenario, horizon):
    model, _, chol, _ = fitted(0, window=40)
    model = model.with_threshold(threshold)
    base = tm.CorrelationMatrix(chol @ chol.T)
    streams = []

    def spy(model, rows, threshold=None):
        streams.append(np.array(rows))
        return mixmonitor.trace_stats(model, rows, threshold)

    monkeypatch.setattr(evalharness, "trace_stats", spy)
    times = []
    for seed in range(8):
        outcome = evalharness.run_prepared_trial(model, base, 5, scenario, horizon, np.random.default_rng(seed))
        run = tm.Monitor(model).run(streams[-1], collect_trace=False)
        assert outcome.alarm_time == run.alarm_time
        times.append(outcome.alarm_time)
    if threshold == math.inf:
        assert times == [None] * 8
    if scenario is not None:
        assert all(t is not None and t < horizon // 2 for t in times)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p0=st.sampled_from([1.0, 0.5, 0.05]),
    window=st.integers(2, 12),
    lag=st.integers(0, 2),
    T=st.integers(1, 40),
    log_scale=st.sampled_from([-100, 0, 100]),
    log_ratio=st.sampled_from([-7, -3, 0, 3, 7]),
)
def test_trace_step_and_per_candidate_reference_agree(seed, p0, window, lag, T, log_scale, log_ratio):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    raw = rng.standard_normal((40 + lag, 3)) * scale
    ext = tm.lag_extend_matrix(raw, lag)
    summary = tm.estimate_training(ext)
    model = tm.build_monitor_model(summary, tm.identity_selection(summary.dim), ext, p0=p0, window=window, lag=lag)
    # the stream's scale against the training's; tiny ratios clamp variances
    ratio = 10.0**log_ratio
    rows = rng.standard_normal((T, 3)) * (scale * ratio)

    stat, k = mixmonitor.trace_stats(model, rows)
    assert stat.shape == k.shape == (T,)
    mon = tm.Monitor(model)
    built = _kernel.scan_step
    _kernel.scan_step = reference_step  # a fixture would outlive the examples
    try:
        for i, x in enumerate(rows):
            step = mon.step(x)
            assert stat[i] == step.stat
            assert k[i] == (-1 if step.argmax_k is None else step.argmax_k)
            t = mon.stats.t
            if t < 2:
                continue
            # the per-candidate reference on the monitor's state
            kmin = max(0, t - window - 1)
            values = [
                tm.mixture_statistic(
                    tm.stream_llr(mon.stats, kk, clamp=True), tm.bartlett_correction(mon.stats.m, kk, t), p0
                )
                for kk in range(kmin, t - 1)
            ]
            # every scan takes the pre-change sums as total minus post-change
            # sum, whose rounding error grows with the square of the ratio
            rel = 1e-7 + np.finfo(float).eps * ratio**2
            assert stat[i] == pytest.approx(max(values), rel=rel, abs=1e-8)
            assert values[k[i] - lag - kmin] == pytest.approx(max(values), rel=rel, abs=1e-8)
    finally:
        _kernel.scan_step = built
