"""The whole-trace scan against the per-step scan it replaces.

``scan_trace`` must reproduce a reference ``RingStats`` + ``scan_step``
loop bit for bit, and the calibration replicates and simulated trials
built on it must match a per-step monitor exactly. The per-step side runs
``tests/scan_reference.py``, not the library's ``scan_step``, which shares
its cell scan with ``scan_trace``. Every test runs twice, with each block
of a trace scan swept by segment length and scanned as one rectangle
(``tests/scan_paths.py``), so both paths meet the same reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tailormon as tm
from scan_paths import block_ends, pinned
from scan_reference import RingStats, ring_state, same_state
from scan_reference import scan_step as reference_step
from tailormon import _kernel, calibrate, evalharness, mixmonitor
from tailormon._kernel import ScanState
from tailormon.mixmonitor import VAR_FLOOR, _BartlettTable
from trial_reference import trace_stats

pytestmark = pytest.mark.usefixtures("scan_path")


def step_loop(z, train_sum, train_sumsq, m, window, p0, var_floor=VAR_FLOOR):
    """(stat, argmax_k, clamps) of every step of ``z`` through the reference kernel."""
    stats = RingStats(train_sum.copy(), train_sumsq.copy(), m, window)
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
            stats.window_prefix(),
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
    # thresholds equal to the largest statistic up to the end of one of the
    # first blocks test a crossing at its last step
    block_max = [ref[:e].max() for e in block_ends(600, 2, 25, thresholded=True)[:6]]
    for threshold in [*block_max, *np.quantile(ref[1:], [0.5, 0.8, 0.9, 0.95, 0.99])]:
        first_t = int(np.flatnonzero(ref >= threshold)[0]) + 1
        stat, k = trace(z, ts, tq, 60, 25, 1.0, threshold)
        # the scan ends at the first crossing, within its block
        assert stat.shape[0] == first_t < 600
        assert np.array_equal(stat, ref[: stat.shape[0]])
        assert np.array_equal(k, ref_k[: stat.shape[0]])
        # and returns the state there
        h = _BartlettTable().upto(60 + 600)
        *_, state = _kernel.scan_trace(z, ts, tq, 60, 25, 1.0, h, VAR_FLOOR, threshold)
        assert same_state(state, ring_state(z[:first_t], ts, tq, 60, 25))
    # a threshold nothing reaches scans the whole trace
    stat, _ = trace(z, ts, tq, 60, 25, 1.0, math.inf)
    assert np.array_equal(stat, ref)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    G=st.sampled_from([1, 2, 5]),
    # either side of numpy's 8-way pairwise row sum
    J=st.sampled_from([1, 2, 3, 7, 8, 11]),
    p0=st.sampled_from([1.0, 0.3]),
    window=st.integers(2, 30),
    T=st.integers(1, 70),
    flat=st.booleans(),
)
def test_stacked_scan_equals_separate_scans(seed, G, J, p0, window, T, flat):
    """G sets of streams scanned side by side give each set's own scan, bit for bit."""
    rng = np.random.default_rng(seed)
    m = 40
    z = rng.standard_normal((T, G, J)) * 10.0 ** rng.uniform(-1.0, 1.0, (G, J))
    if flat:
        # a near-constant stretch of one stream: its segment variances clamp
        g, j, lo = rng.integers(G), rng.integers(J), rng.integers(max(1, T - 1))
        z[lo:lo + 2 + rng.integers(15), g, j] = 0.25 + 1e-9 * rng.standard_normal()
    ts = 0.2 * rng.standard_normal((G, J))
    tq = m + rng.standard_normal((G, J))
    h = _BartlettTable().upto(m + T)
    alone = [_kernel.scan_trace(z[:, g], ts[g], tq[g], m, window, p0, h, VAR_FLOOR) for g in range(G)]
    stat, k, clamped, state = _kernel.scan_trace(z, ts, tq, m, window, p0, h, VAR_FLOOR)
    assert stat.shape == k.shape == clamped.shape == (G, T)
    # no NaN reaches the tie rule: every statistic of a step with a candidate
    # is finite, clamped variances included
    assert np.all(np.isfinite(stat[:, 1:]))
    for g, (a_stat, a_k, a_clamped, _) in enumerate(alone):
        assert stat[g].tobytes() == a_stat.tobytes()
        assert k[g].tobytes() == a_k.tobytes()
        assert clamped[g].tobytes() == a_clamped.tobytes()
        ring = ring_state(z[:, g], ts[g], tq[g], m, window)
        assert same_state(
            ScanState(state.total[:, g], state.comp[:, g], state.tail[:, g], state.prefix[:, :, g], state.t), ring
        )
        # each set's scan is the reference's, so an order of summation that
        # differs from the reference's fails whether or not it is stacked
        ref, ref_k, ref_clamps = step_loop(z[:, g], ts[g], tq[g], m, window, p0)
        assert np.array_equal(stat[g], ref) and np.array_equal(k[g], ref_k)
        assert int(clamped[g].sum()) == ref_clamps
    if flat and T > 1 and lo + 1 < T:
        assert clamped.sum() > 0


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    G=st.sampled_from([1, 2, 3, 6]),
    J=st.sampled_from([1, 2, 3, 8, 11]),
    p0=st.sampled_from([1.0, 0.3]),
    window=st.integers(2, 30),
    T=st.integers(2, 90),
    where=st.sampled_from(["quantile", "at_once", "block_edge", "never"]),
    q=st.floats(0.3, 0.99),
    # the cells of a block: small blocks make the sets leave, and the scan
    # copy the columns of the others, at every block alignment
    cells=st.sampled_from([None, 30, 100, 400]),
)
def test_stacked_thresholded_scan_stops_each_set_at_its_own_crossing(scan_path, seed, G, J, p0, window, T, where, q,
                                                                      cells):
    """Each set of a stacked thresholded scan keeps its own scan's steps up to its first crossing, and nothing after."""
    rng = np.random.default_rng(seed)
    m = 40
    z = rng.standard_normal((T, G, J)) * rng.uniform(0.5, 2.0, (G, J))
    z[T // 2:] += rng.uniform(-1.0, 1.0, (G, J))
    ts = 0.2 * rng.standard_normal((G, J))
    tq = m + rng.standard_normal((G, J))
    h = _BartlettTable().upto(m + T)
    alone = [_kernel.scan_trace(z[:, g], ts[g], tq[g], m, window, p0, h, VAR_FLOOR) for g in range(G)]
    stats = np.array([a[0] for a in alone])  # (G, T), -inf at t = 1
    pick = rng.integers(G)
    with pinned(scan_path, cells):
        if where == "quantile":
            threshold = float(np.quantile(stats[:, 1:], q))
        elif where == "at_once":
            # one set crosses at its first step with a candidate
            threshold = float(stats[pick, 1])
        elif where == "block_edge":
            # one set's statistic at the last or first step of one of the
            # first blocks of the budget in force
            ends = block_ends(T, G * J, window, thresholded=True)
            t = int(rng.choice(ends + [e + 1 for e in ends if e < T]))
            threshold = float(stats[pick, t - 1])
        else:
            threshold = math.inf
        stat, k, clamped, state = _kernel.scan_trace(z, ts, tq, m, window, p0, h, VAR_FLOOR, threshold)
    hits = stats >= threshold
    # the state is that of the sets that never crossed, after the last step
    running = [g for g in range(G) if not hits[g].any()]
    if running:
        assert state.total.shape == (2, len(running), J)
        for i, g in enumerate(running):
            set_state = ScanState(state.total[:, i], state.comp[:, i], state.tail[:, i], state.prefix[:, :, i], state.t)
            assert same_state(set_state, ring_state(z[:, g], ts[g], tq[g], m, window))
    else:
        assert state is None
    lengths = [int(np.argmax(row)) + 1 if row.any() else T for row in hits]
    assert stat.shape == k.shape == clamped.shape == (G, max(lengths))
    if where == "at_once":
        assert lengths[pick] == 2
    for g, (a_stat, a_k, a_clamped, _) in enumerate(alone):
        n = lengths[g]
        assert stat[g, :n].tobytes() == a_stat[:n].tobytes()
        assert k[g, :n].tobytes() == a_k[:n].tobytes()
        assert clamped[g, :n].tobytes() == a_clamped[:n].tobytes()
        assert np.all(stat[g, n:] == -np.inf) and np.all(k[g, n:] == -1) and np.all(clamped[g, n:] == 0)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    G=st.sampled_from([1, 2, 5]),
    J=st.sampled_from([1, 3, 8]),
    p0=st.sampled_from([1.0, 0.3]),
    window=st.integers(2, 30),
    T=st.integers(2, 90),
    cuts=st.lists(st.integers(1, 89), max_size=4),
    q=st.floats(0.3, 1.0),
    cells=st.sampled_from([None, 30, 100]),
)
def test_stacked_thresholded_scan_resumes_stretch_by_stretch(scan_path, seed, G, J, p0, window, T, cuts, q, cells):
    """A stacked thresholded scan in stretches, each resumed from the sets still running, is the whole trace's scan."""
    rng = np.random.default_rng(seed)
    m = 40
    z = rng.standard_normal((T, G, J)) * rng.uniform(0.5, 2.0, (G, J))
    z[T // 2:] += rng.uniform(-1.0, 1.0, (G, J))
    ts = 0.2 * rng.standard_normal((G, J))
    tq = m + rng.standard_normal((G, J))
    h = _BartlettTable().upto(m + T)
    alone = np.array([_kernel.scan_trace(z[:, g], ts[g], tq[g], m, window, p0, h, VAR_FLOOR)[0] for g in range(G)])
    threshold = float(np.quantile(alone[:, 1:], q))
    with pinned(scan_path, cells):
        whole = _kernel.scan_trace(z, ts, tq, m, window, p0, h, VAR_FLOOR, threshold)[0]
        got = np.full((G, T), -np.inf)
        live, state = np.arange(G), None
        edges = sorted({0, T, *(c for c in cuts if c < T)})
        for a, b in zip(edges, edges[1:]):
            stat, _, _, state = _kernel.scan_trace(
                z[a:b, live], ts[live], tq[live], m, window, p0, h, VAR_FLOOR, threshold, state=state
            )
            got[live, a:a + stat.shape[1]] = stat
            live = live[~(stat >= threshold).any(axis=1)]
            # the state holds the sets still running, in their order, or is None
            assert (state is None) == (live.size == 0)
            if state is not None:
                assert state.t == b and state.total.shape == (2, live.size, J)
            if not live.size:
                break
    n = whole.shape[1]
    assert got[:, :n].tobytes() == whole.tobytes()
    assert np.all(got[:, n:] == -np.inf)
    hits = alone >= threshold
    assert live.tolist() == [g for g in range(G) if not hits[g].any()]


def test_a_long_stacked_thresholded_scan_keeps_each_sets_own_scan(scan_path):
    """Three sets over 700 steps in small blocks: one crosses before step 256, one after it, one never."""
    rng = np.random.default_rng(21)
    T, G, J, m, window = 700, 3, 2, 60, 25
    z = rng.standard_normal((T, G, J))
    z[100:, 0, 0] += 4.0
    z[450:, 1, 1] += 4.0
    ts = 0.2 * rng.standard_normal((G, J))
    tq = m + rng.standard_normal((G, J))
    h = _BartlettTable().upto(m + T)
    alone = [_kernel.scan_trace(z[:, g], ts[g], tq[g], m, window, 0.5, h, VAR_FLOOR) for g in range(G)]
    stats = np.array([a[0] for a in alone])
    # above every statistic before each set's shift, so only the shifts cross
    threshold = 1.0 + max(stats[0, :100].max(), stats[1, :450].max(), stats[2].max())
    firsts = [int(np.argmax(row >= threshold)) + 1 if (row >= threshold).any() else None for row in stats]
    assert firsts[0] < 256 < firsts[1] and firsts[2] is None
    # the whole trace, and the trace cut at the second set's crossing, so that
    # it leaves the scan in the last block and the state is cut right after
    for end in (T, firsts[1]):
        # a few steps a block, so the sets leave the scan at a block's edge or inside it
        with pinned(scan_path, 300):
            stat, k, clamped, state = _kernel.scan_trace(z[:end], ts, tq, m, window, 0.5, h, VAR_FLOOR, threshold)
        assert stat.shape == (G, end)
        for g, (a_stat, a_k, a_clamped, _) in enumerate(alone):
            n = min(firsts[g] or end, end)
            assert stat[g, :n].tobytes() == a_stat[:n].tobytes()
            assert k[g, :n].tobytes() == a_k[:n].tobytes()
            assert clamped[g, :n].tobytes() == a_clamped[:n].tobytes()
            assert np.all(stat[g, n:] == -np.inf) and np.all(k[g, n:] == -1) and np.all(clamped[g, n:] == 0)
        # the state is the last set's alone, after the last step
        assert state.total.shape == (2, 1, J)
        assert same_state(state.pick(0), ring_state(z[:end, 2], ts[2], tq[2], m, window))


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
    stat, k = trace_stats(model, rows)
    ref, ref_k = monitor_stats(model, rows)
    assert np.array_equal(stat, ref)
    assert np.array_equal(k, ref_k)


@pytest.mark.parametrize("lag", [0, 2])
def test_trace_stats_with_a_threshold_ends_at_the_first_alarm(reference_step_kernel, lag):
    model, _, chol, rng = fitted(lag, p0=0.3)
    rows = rng.standard_normal((300, chol.shape[0])) @ chol.T
    rows[150:, 0] += 1.5
    ref, ref_k = monitor_stats(model, rows)
    ends = [e + lag for e in block_ends(300 - lag, model.n_streams, model.window, thresholded=True)]
    for threshold in [ref[:e].max() for e in ends[:5]] + [float(np.max(ref)), math.inf]:
        stat, k = trace_stats(model, rows, threshold)
        n = int(np.argmax(ref >= threshold)) + 1 if (ref >= threshold).any() else 300
        assert stat.tobytes() == ref[:n].tobytes() and k.tobytes() == ref_k[:n].tobytes()


def test_trace_stats_rejects_bad_rows():
    model, _, chol, rng = fitted(1)
    rows = rng.standard_normal((10, chol.shape[0]))
    for bad in (math.nan, 1e200):
        poisoned = rows.copy()
        poisoned[4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            trace_stats(model, poisoned)
    rows[4, 1] = math.nan
    with pytest.raises(tm.DimensionMismatch):
        trace_stats(model, rows[:, :2])
    stat, k = trace_stats(model, rows[:1])
    assert stat.tolist() == [-math.inf] and k.tolist() == [-1]


def replicate_reference(model, train_synth, monitor_synth):
    """``replicate_maximum`` written out step by step on the reference kernel."""
    ext = tm.lag_extend_matrix(np.asarray(train_synth, dtype=float), model.lag)
    summary = tm.estimate_training(ext)
    sel = tm.manual_selection(tm.eigensystem(summary.corr), model.selection.indices)
    replica = tm.build_monitor_model(summary, sel, ext, p0=model.p0, window=model.window, lag=model.lag)
    stats = RingStats(replica.train_sum, replica.train_sumsq, replica.m, replica.window)
    history = []
    table = _BartlettTable()
    best = -math.inf
    for x in monitor_synth:
        history.append(x)
        if len(history) < model.lag + 1:
            continue
        stats.append(tm.project_observation(replica, tm.lag_extend_matrix(history[-(model.lag + 1):], model.lag)[0]))
        t = stats.t
        if t < 2:
            continue
        kmin = max(0, t - replica.window - 1)
        s, _, _ = reference_step(
            stats.train_sum, stats.train_sumsq, stats.m, stats.run_sum, stats.run_sumsq,
            np.ascontiguousarray(stats.window_values()), t, kmin, replica.p0, table.cvals(stats.m, t, kmin),
            VAR_FLOOR, stats.window_prefix(),
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
    stretches = []

    drawn = evalharness._trial_rows

    def spy(*args):
        stretches.append(drawn(*args))
        return stretches[-1]

    monkeypatch.setattr(evalharness, "_trial_rows", spy)
    times, lengths = [], []
    for seed in range(8):
        stretches.clear()
        outcome = evalharness.run_prepared_trial(model, base, 5, scenario, horizon, np.random.default_rng(seed))
        # the rows drawn, up to the end of the stretch that alarmed
        stream = np.vstack(stretches)
        run = tm.Monitor(model).run(stream, collect_trace=False)
        assert outcome.alarm_time == run.alarm_time
        assert len(stream) == horizon if outcome.censored else outcome.alarm_time <= len(stream)
        times.append(outcome.alarm_time)
        lengths.append(len(stream))
    if threshold == math.inf:
        assert times == [None] * 8
    if scenario is not None:
        assert all(t is not None and t < horizon // 2 for t in times)
        # the rows after an early alarm's stretch are never drawn
        assert max(lengths) < horizon


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

    stat, k = trace_stats(model, rows)
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
            # the pre-change sums are the training plus the running sums at k,
            # so no error grows with the ratio
            assert stat[i] == pytest.approx(max(values), rel=1e-7, abs=1e-8)
            assert values[k[i] - lag - kmin] == pytest.approx(max(values), rel=1e-7, abs=1e-8)
    finally:
        _kernel.scan_step = built


def test_a_stream_far_out_of_its_training_scale_keeps_its_digits():
    # taken as total minus post-change sum, the pre-change sums of this stream,
    # 1e7 training standard deviations out, lost about five digits: the scans
    # and the per-candidate reference then read 1174.4645 and 1174.4592 at t = 3
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((40, 3))
    model = tm.build_monitor_model(tm.estimate_training(raw), tm.identity_selection(3), raw, p0=1.0, window=2)
    rows = rng.standard_normal((3, 3)) * 1e7
    stat, k = trace_stats(model, rows)
    mon = tm.Monitor(model)
    for i, x in enumerate(rows):
        assert mon.step(x).stat == stat[i]
        t = mon.stats.t
        if t < 2:
            continue
        values = [
            tm.mixture_statistic(tm.stream_llr(mon.stats, kk, clamp=True), tm.bartlett_correction(model.m, kk, t), 1.0)
            for kk in range(max(0, t - 3), t - 1)
        ]
        assert stat[i] == pytest.approx(max(values), rel=1e-9)
        assert values[k[i] - max(0, t - 3)] == max(values)
    assert stat[2] == pytest.approx(1174.4645, rel=1e-7)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    G=st.sampled_from([1, 2, 4, 7]),
    n_axes=st.sampled_from([1, 2, 3]),
    lag=st.integers(0, 2),
    p0=st.sampled_from([1.0, 0.3]),
    window=st.integers(2, 25),
    T=st.integers(1, 80),
    q=st.floats(0.0, 1.0),
)
def test_stacked_crossings_equal_each_streams_trace_stats(seed, G, n_axes, lag, p0, window, T, q):
    """Simulated trials' first alarms from one stacked scan are those ``trace_stats`` finds for each stream alone."""
    rng = np.random.default_rng(seed)
    dim = 4
    base = tm.random_correlation(dim, 1.0, rng)
    chol = np.linalg.cholesky(base.values)
    raw = rng.standard_normal((60 + lag, dim)) @ chol.T
    ext = tm.lag_extend_matrix(raw, lag)
    summary = tm.estimate_training(ext)
    sel = tm.min_variance_selection(tm.eigensystem(summary.corr), n_axes)
    model = tm.build_monitor_model(summary, sel, ext, p0=p0, window=window, lag=lag)
    streams = [rng.standard_normal((T, dim)) @ chol.T + rng.uniform(0.0, 1.5) * (np.arange(T) > T // 2)[:, None]
               for _ in range(G)]
    alone = [trace_stats(model, rows)[0] for rows in streams]
    finite = np.concatenate([a[np.isfinite(a)] for a in alone] + [[0.0]])
    # a quantile of all statistics; q = 1 is the largest, crossed at one step at least
    threshold = float(np.quantile(finite, q))
    fresh = _kernel.ScanState.fresh(model.n_streams)
    none = np.empty((0, dim))  # no raw row held before a stream
    short, z = zip(*(mixmonitor._checked_projections(model, rows, fresh, none) for rows in streams))
    firsts, _ = mixmonitor._stacked_crossings(
        model, np.stack(z, axis=1), threshold, _kernel.ScanState.fresh(G, n_axes), _BartlettTable()
    )
    for g, rows in enumerate(streams):
        stat, _ = trace_stats(model, rows, threshold)
        hits = np.flatnonzero(stat >= threshold)
        assert firsts[g] == (hits[0] - short[g] if hits.size else -1)
        assert stat.tobytes() == alone[g][:stat.shape[0]].tobytes()
