"""``Monitor.feed`` against ``Monitor.step``, and the resumable trace scan under it.

Feeding a block of rows must give the results and leave the state that
stepping the same rows one at a time gives, bit for bit: every
``StepResult`` field, the ``StreamStats`` ring, running totals and
compensations, the lag history and the warning count. ``Monitor.step``
runs on the reference kernel of ``tests/scan_reference.py`` here, so the
comparisons do not pass through the cell scan that ``feed`` shares with
the library's ``scan_step``.
"""

import math

import numpy as np
import pytest

import tailormon as tm
from scan_reference import scan_step as reference_step
from tailormon import _kernel, mixmonitor
from tailormon.mixmonitor import VAR_FLOOR, StreamStats, _BartlettTable

WINDOW = 25


@pytest.fixture(autouse=True)
def reference_step_kernel(monkeypatch):
    monkeypatch.setattr(_kernel, "scan_step", reference_step)


def fitted(lag=0, p0=1.0, n_axes=2, dim=5, window=WINDOW, m=80, seed=0, threshold=math.inf):
    """A model on the ``n_axes`` least varying axes, or on every stream when ``n_axes`` is None."""
    rng = np.random.default_rng(seed)
    base = tm.random_correlation(dim, 1.0, rng)
    chol = np.linalg.cholesky(base.values)
    raw = rng.standard_normal((m + lag, dim)) @ chol.T
    ext = tm.lag_extend_matrix(raw, lag)
    summary = tm.estimate_training(ext)
    if n_axes is None:
        sel = tm.identity_selection(summary.dim)
    else:
        sel = tm.min_variance_selection(tm.eigensystem(summary.corr), n_axes)
    model = tm.build_monitor_model(summary, sel, ext, p0=p0, window=window, lag=lag, threshold=threshold)
    return model, chol, rng


def stream(chol, rng, n, shift_at=None):
    rows = rng.standard_normal((n, chol.shape[0])) @ chol.T
    if shift_at is not None:
        rows[shift_at:, 0] += 2.0
    return rows


def key(res):
    """Every field of a step result, the statistic by its bits."""
    return (res.t, float.hex(res.stat), res.argmax_k, res.alarm, res.warnings)


def snapshot(mon):
    s = mon.stats
    return (
        mon.t,
        s.t,
        mon.total_warnings,
        s.ring.tobytes(),
        s.run_sum.tobytes(),
        s.run_sumsq.tobytes(),
        s._comp_sum.tobytes(),
        s._comp_sumsq.tobytes(),
        tuple(r.tobytes() for r in mon._raw_history),
    )


def feed_in_chunks(mon, rows, sizes):
    """Feed ``rows`` in chunks cycling through ``sizes``; check the state after each call."""
    ref = tm.Monitor(mon.model)
    got = []
    start, i = 0, 0
    while start < rows.shape[0]:
        chunk = rows[start:start + sizes[i % len(sizes)]]
        fed = mon.feed(chunk)
        stepped = [ref.step(x) for x in chunk]
        assert [key(r) for r in fed] == [key(r) for r in stepped]
        assert snapshot(mon) == snapshot(ref)
        got += fed
        start += chunk.shape[0]
        i += 1
    return got


@pytest.mark.parametrize("lag", [0, 1, 2])
@pytest.mark.parametrize(
    "sizes",
    [
        (WINDOW,),  # a boundary just before t = w + 1
        (WINDOW + 1,),  # at t = w + 1
        (WINDOW + 2,),  # just after
        (1, 2, 3, 40),
        (300,),  # the whole stream at once
    ],
)
def test_feed_equals_step(lag, sizes):
    model, chol, rng = fitted(lag, p0=0.3, n_axes=3, threshold=9.0)
    rows = stream(chol, rng, 140, shift_at=90)
    got = feed_in_chunks(tm.Monitor(model), rows, sizes)
    assert len(got) == 140
    assert any(r.alarm for r in got)


@pytest.mark.parametrize(
    "n_axes, dim", [(1, 5), (3, 5), (20, 10), (7, 10), (8, 10), (9, 10), (16, 10), (17, 10)]
)
@pytest.mark.parametrize("p0", [1.0, 0.1])
def test_feed_equals_step_across_widths(n_axes, dim, p0):
    model, chol, rng = fitted(1, p0=p0, n_axes=n_axes, dim=dim, m=120)
    rows = stream(chol, rng, 70, shift_at=40)
    feed_in_chunks(tm.Monitor(model), rows, (13, WINDOW + 1))


@pytest.mark.parametrize("lag", [0, 1])
def test_constant_column_clamps_match(lag):
    # a raw stream frozen at its training mean projects to a constant on
    # its own axis, so segment variances fall below the floor
    model, chol, rng = fitted(lag, p0=0.5, n_axes=None, dim=5)
    rows = stream(chol, rng, 90)
    rows[20:, 2] = model.training.mean[2]
    got = feed_in_chunks(tm.Monitor(model), rows, (7, 30))
    assert sum(r.warnings for r in got) > 0


def test_step_feed_step_interleave():
    model, chol, rng = fitted(1, p0=0.2, n_axes=3, threshold=8.0)
    rows = stream(chol, rng, 160, shift_at=100)
    mon, ref = tm.Monitor(model), tm.Monitor(model)
    got, i = [], 0
    plan = [("step", 1), ("feed", 3), ("step", 2), ("feed", 30), ("step", 5), ("feed", 1), ("feed", 80), ("step", 38)]
    for how, n in plan:
        chunk = rows[i:i + n]
        if how == "step":
            got += [mon.step(x) for x in chunk]
        else:
            got += mon.feed(chunk)
        i += n
    assert i == rows.shape[0]
    assert [key(r) for r in got] == [key(ref.step(x)) for x in rows]
    assert snapshot(mon) == snapshot(ref)
    # the state feed leaves serves the per-candidate reference
    t = mon.stats.t
    k = got[-1].argmax_k - model.lag
    value = tm.mixture_statistic(
        tm.stream_llr(mon.stats, k, clamp=True), tm.bartlett_correction(model.m, k, t), model.p0
    )
    assert value == pytest.approx(got[-1].stat, rel=1e-7)


@pytest.mark.parametrize("lag", [0, 2])
@pytest.mark.parametrize("first", [5, 60])
def test_stop_on_alarm_consumes_up_to_the_alarm(lag, first):
    model, chol, rng = fitted(lag, p0=0.3, n_axes=3, threshold=9.0)
    rows = stream(chol, rng, 200, shift_at=90)
    ref = tm.Monitor(model)
    stepped = [ref.step(x) for x in rows]
    alarm_t = next(r.t for r in stepped if r.alarm)
    assert first < alarm_t

    mon = tm.Monitor(model)
    head = mon.feed(rows[:first], stop_on_alarm=True)
    rest = mon.feed(rows[first:], stop_on_alarm=True)
    assert [key(r) for r in head + rest] == [key(r) for r in stepped[:alarm_t]]
    assert rest[-1].alarm and not any(r.alarm for r in head + rest[:-1])
    at_alarm = tm.Monitor(model)
    for x in rows[:alarm_t]:
        at_alarm.step(x)
    assert snapshot(mon) == snapshot(at_alarm)
    # the rows after the alarm were not consumed; feeding them goes on from there
    after = mon.feed(rows[alarm_t:])
    assert [key(r) for r in after] == [key(r) for r in stepped[alarm_t:]]
    assert snapshot(mon) == snapshot(ref)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
def test_bad_row_mid_block_leaves_state_untouched(bad):
    model, chol, rng = fitted(1, p0=0.3, n_axes=3)
    rows = stream(chol, rng, 80)
    mon = tm.Monitor(model)
    mon.feed(rows[:30])
    before = snapshot(mon)
    block = rows[30:60].copy()
    block[12, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        mon.feed(block)
    assert snapshot(mon) == before
    # a first row has no projection yet; the lag history must not take it
    fresh = tm.Monitor(model)
    with pytest.raises(ValueError, match="non-finite"):
        fresh.feed(block[12:13])
    assert snapshot(fresh) == snapshot(tm.Monitor(model))
    with pytest.raises(tm.DimensionMismatch):
        mon.feed(rows[30:60, :2])
    assert snapshot(mon) == before
    assert mon.feed(rows[:0]) == [] and mon.feed([]) == []
    assert snapshot(mon) == before
    ref = tm.Monitor(model)
    stepped = [ref.step(x) for x in rows]
    assert [key(r) for r in mon.feed(rows[30:])] == [key(r) for r in stepped[30:]]
    assert snapshot(mon) == snapshot(ref)


@pytest.mark.parametrize("lag", [0, 1])
def test_rows_overflowing_the_sums_of_squares_together_rejected(lag):
    # every huge row passes the per-value test (its projections square to
    # finite values), but enough of them make the training-plus-running
    # sums of squares too large to square their sums; the row that would
    # do so is rejected before any state or lag history changes
    model, chol, rng = fitted(lag, n_axes=None, dim=3, window=20)
    rows = np.vstack([stream(chol, rng, 10), np.full((200, 3), 3e152)])
    mon = tm.Monitor(model)
    stepped = []
    for bad, x in enumerate(rows):
        before = snapshot(mon)
        try:
            stepped.append(key(mon.step(x)))
        except ValueError as exc:
            assert "too large to scan" in str(exc)
            assert snapshot(mon) == before
            break
    else:
        pytest.fail("no row was rejected")
    assert bad > 12  # several huge rows were monitored first
    fed = tm.Monitor(model)
    with pytest.raises(ValueError, match="too large to scan"):
        fed.feed(rows[:bad + 1])
    assert snapshot(fed) == snapshot(tm.Monitor(model))
    assert [key(r) for r in fed.feed(rows[:bad])] == stepped
    with pytest.raises(ValueError, match="too large to scan"):
        fed.feed(rows[bad:bad + 5])
    assert snapshot(fed) == snapshot(mon)
    with pytest.raises(ValueError, match="too large to scan"):
        mixmonitor.trace_stats(model, rows[:bad + 1])
    stat, _ = mixmonitor.trace_stats(model, rows[:bad])
    assert [float.hex(s) for s in stat] == [k[1] for k in stepped]


def test_feed_copies_its_rows():
    # like step, feed keeps no reference to a buffer the caller refills
    model, chol, rng = fitted(2, n_axes=3)
    rows = stream(chol, rng, 40)
    mon, ref = tm.Monitor(model), tm.Monitor(model)
    buf = rows[:10].copy()
    mon.feed(buf)
    buf[:] = 1e6
    [ref.step(x) for x in rows[:10]]
    assert snapshot(mon) == snapshot(ref)
    assert [key(r) for r in mon.feed(rows[10:])] == [key(ref.step(x)) for x in rows[10:]]


def step_reference(z, train_sum, train_sumsq, m, window, p0):
    """(stat, argmax_k, clamps) per step of ``z`` through ``StreamStats`` and the reference kernel."""
    stats = StreamStats(train_sum=train_sum.copy(), train_sumsq=train_sumsq.copy(), m=m, window=window)
    table = _BartlettTable()
    out = []
    for row in z:
        stats.append(row)
        t = stats.t
        if t < 2:
            out.append((-math.inf, -1, 0))
            continue
        kmin = max(0, t - window - 1)
        s, k, c = reference_step(
            stats.train_sum, stats.train_sumsq, m, stats.run_sum, stats.run_sumsq,
            np.ascontiguousarray(stats.window_values()), t, kmin, p0, table.cvals(m, t, kmin), VAR_FLOOR,
        )
        out.append((s, k, c))
    return out


@pytest.mark.parametrize("cuts", [(), (1,), (1, 2), (7, 26, 27, 90), (60,)])
def test_scan_trace_in_pieces_counts_clamps_per_step(cuts):
    rng = np.random.default_rng(4)
    z = rng.standard_normal((150, 3))
    z[40:, 1] = 0.5  # a constant stretch clamps post-change variances
    ts, tq = rng.standard_normal(3) * 0.2, 60 + rng.standard_normal(3)
    h = _BartlettTable().upto(60 + z.shape[0])
    state = _kernel.ScanState.fresh(3)
    got = []
    for lo, hi in zip((0, *cuts), (*cuts, z.shape[0])):
        stat, k, clamped, state = _kernel.scan_trace(z[lo:hi], ts, tq, 60, 25, 0.4, h, VAR_FLOOR, state=state)
        got += list(zip(stat.tolist(), k.tolist(), clamped.tolist()))
        assert state.t == hi
    ref = step_reference(z, ts, tq, 60, 25, 0.4)
    assert got == ref
    assert sum(c for _, _, c in ref) > 0
    # the state after the last piece is what the per-step totals and buffer hold
    stats = StreamStats(train_sum=ts.copy(), train_sumsq=tq.copy(), m=60, window=25)
    for row in z:
        stats.append(row)
    assert np.array_equal(state.total, np.stack([stats.run_sum, stats.run_sumsq]))
    assert np.array_equal(state.comp, np.stack([stats._comp_sum, stats._comp_sumsq]))
    assert np.array_equal(state.tail, stats.window_values())
    assert np.array_equal(_kernel.advance_state(_kernel.ScanState.fresh(3), z, 25).total, state.total)
