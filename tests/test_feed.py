"""``Monitor.feed`` against ``Monitor.step``, and the resumable trace scan under it.

Feeding a block of rows must give the results and leave the state that
stepping the same rows one at a time gives, bit for bit: every
``StepResult`` field, the running totals, compensations, kept window and
prefix sums of the monitor's ``ScanState``, the lag history and the
warning count.
``Monitor.step`` runs on the reference kernel of
``tests/scan_reference.py`` here, so the comparisons do not pass through
the cell scan that ``feed`` shares with the library's ``scan_step``.
Every test runs twice, with each block of the trace scan swept by segment
length and scanned as one rectangle (``tests/scan_paths.py``).
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tailormon as tm
from scan_paths import pinned
from scan_reference import RingStats, ring_state, same_state
from scan_reference import scan_step as reference_step
from tailormon import _kernel
from tailormon._kernel import _scan_py
from tailormon.mixmonitor import VAR_FLOOR, _BartlettTable
from trial_reference import trace_stats

WINDOW = 25

pytestmark = pytest.mark.usefixtures("scan_path")


@pytest.fixture(autouse=True)
def reference_step_kernel(monkeypatch):
    monkeypatch.setattr(_kernel, "scan_step", reference_step)


def fitted(lag=0, p0=1.0, n_axes=2, dim=5, window=WINDOW, m=80, seed=0, threshold=math.inf, scale=1.0):
    """A model on the ``n_axes`` least varying axes, or on every stream when ``n_axes`` is None.

    It is trained on values of about ``scale``.
    """
    rng = np.random.default_rng(seed)
    base = tm.random_correlation(dim, 1.0, rng)
    chol = np.linalg.cholesky(base.values)
    raw = scale * (rng.standard_normal((m + lag, dim)) @ chol.T)
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
    s = mon.stats.state
    return (
        mon.t,
        s.t,
        mon.total_warnings,
        s.total.tobytes(),
        s.comp.tobytes(),
        s.tail.shape,
        s.tail.tobytes(),
        s.prefix.shape,
        s.prefix.tobytes(),
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


@pytest.mark.parametrize("n_axes", [1, 3, 8])
@pytest.mark.parametrize("size", ["one", "lanes", "lanes+1", "64"])
def test_feed_equals_step_on_both_sides_of_the_lane_rule(n_axes, size):
    # a block of more rows than the running totals' 2 * J lanes, and of fewer
    # than KAHAN_ROW_VALUES lanes, is added lane by lane, any other row by
    # row, as every step adds its one row
    lanes = 2 * n_axes
    rows_per_chunk = {"one": 1, "lanes": lanes, "lanes+1": lanes + 1, "64": 64}[size]
    model, chol, rng = fitted(0, p0=0.3, n_axes=n_axes, dim=max(5, n_axes), threshold=9.0)
    rows = stream(chol, rng, 140, shift_at=90)
    got = feed_in_chunks(tm.Monitor(model), rows, (rows_per_chunk,))
    assert len(got) == 140


@pytest.mark.parametrize("lag", [0, 1])
def test_a_feed_cut_at_any_offset_equals_one_feed_and_steps(lag):
    # the second piece's scan starts from the state the first leaves, whose
    # window and prefix sums are shorter than w + 1 up to the cut at w + 1
    model, chol, rng = fitted(lag, p0=0.3, n_axes=3, threshold=9.0)
    rows = stream(chol, rng, 2 * WINDOW + 10, shift_at=WINDOW)
    whole, ref = tm.Monitor(model), tm.Monitor(model)
    one = [key(r) for r in whole.feed(rows)]
    assert one == [key(ref.step(x)) for x in rows]
    assert snapshot(whole) == snapshot(ref)
    for cut in range(1, WINDOW + 3):
        mon = tm.Monitor(model)
        got = mon.feed(rows[:cut]) + mon.feed(rows[cut:])
        assert [key(r) for r in got] == one, cut
        assert snapshot(mon) == snapshot(whole), cut


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


@pytest.mark.parametrize("lag", [0, 1])
@pytest.mark.parametrize("place", ["first", "middle", "last"])
def test_stop_on_alarm_at_a_place_in_a_scan_block(lag, place):
    # the alarm falls at the first, a middle or the last step of a block of
    # the trace scan; feed stops there and keeps the state of that step
    model, chol, rng = fitted(lag, p0=0.3, n_axes=3)
    rows = stream(chol, rng, 300, shift_at=150)
    stats = [r.stat for r in tm.Monitor(model).feed(rows)]
    # a statistic above every earlier one, so the first to reach it as a threshold
    alarm_t = next(t for t in range(100, 300) if stats[t - 1] > max(stats[: t - 1]))
    # the fed rows' scan starts at time t0 = start - lag + 1, a block of the
    # path in force that holds the alarm there
    for steps in range(_scan_py.TRACE_BLOCK_STEPS, 2, -1):
        before = {"first": 0, "middle": steps // 2, "last": steps - 1}[place]
        t0 = alarm_t - lag - before
        if _scan_py._next_block(t0, rows.shape[0] - lag, 3, WINDOW, True)[0] == t0 + steps:
            break
    else:
        pytest.fail("no block holds the alarm at that place")
    start = t0 + lag - 1  # raw rows consumed before the block is fed
    armed = model.with_threshold(stats[alarm_t - 1])

    mon = tm.Monitor(armed)
    mon.feed(rows[:start])
    got = mon.feed(rows[start:], stop_on_alarm=True)
    assert len(got) == alarm_t - start
    assert got[-1].alarm and got[-1].t == alarm_t and not any(r.alarm for r in got[:-1])
    at_alarm = tm.Monitor(armed)
    stepped = [at_alarm.step(x) for x in rows[:alarm_t]]
    assert [key(r) for r in got] == [key(r) for r in stepped[start:]]
    assert snapshot(mon) == snapshot(at_alarm)


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
def test_an_empty_block_of_the_wrong_shape_is_rejected(lag):
    # an empty block is checked as a block of rows is: a width or a rank
    # other than the model's raises before any state changes
    model, chol, rng = fitted(lag, dim=4)
    mon = tm.Monitor(model)
    mon.feed(stream(chol, rng, 30))
    before = snapshot(mon)
    for shape in [(0, 7), (0, 3), (0, 0), (0, 4, 3), (0, 1, 4)]:
        with pytest.raises(tm.DimensionMismatch):
            mon.feed(np.empty(shape))
        with pytest.raises(tm.DimensionMismatch):
            mon.feed(np.empty(shape), stop_on_alarm=True)
        assert snapshot(mon) == before
    # an empty sequence and an empty slice of rows are blocks of no rows
    assert mon.feed([]) == [] and mon.feed(np.empty((0, 4))) == [] and mon.feed(np.empty(0)) == []
    assert snapshot(mon) == before


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
        trace_stats(model, rows[:bad + 1])
    stat, _ = trace_stats(model, rows[:bad])
    assert [float.hex(s) for s in stat] == [k[1] for k in stepped]


@lru_cache
def small_scale(lag):
    """(model, chol, c): a model trained on values of about 1e-3, so its projector is large, and a huge value c.

    A raw value of 1e154 squares to a finite value, but projects to one
    whose square is not. Rows of c in every column project to at most
    6e152, whose squares pass one by one, but four to six of them
    overflow the running sums of squares together.
    """
    model, chol, _ = fitted(lag, p0=0.3, n_axes=2, dim=3, window=10, m=60, seed=lag, scale=1e-3)
    # a vector of c in every slot projects to c times the projector's column sums
    return model, chol, 6e152 / np.abs(model.projector.sum(axis=0)).max()


BAD_ROWS = ("nan", "inf", "1e200", "projection", "sums")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lag=st.integers(0, 2),
    seed=st.integers(0, 2**16),
    bad=st.lists(st.tuples(st.sampled_from(BAD_ROWS), st.integers(0, 39), st.integers(0, 2)), min_size=1, max_size=3),
    sizes=st.lists(st.integers(1, 16), min_size=1, max_size=6),
)
def test_feed_rejects_as_stepping_does(lag, seed, bad, sizes):
    # bad rows of every kind at any place of a stream fed in any split: feed
    # raises the error stepping raises, at stepping's row, and consumes no
    # row; the rows before it fed alone, and the rest of the stream after
    # it, come out as stepping gives them, bit for bit
    model, chol, c = small_scale(lag)
    rows = 1e-3 * stream(chol, np.random.default_rng(seed), 40)
    for kind, at, col in bad:
        if kind == "sums":
            rows[min(at, 34):min(at, 34) + 6] = c
        else:
            rows[at, col] = {"nan": math.nan, "inf": -math.inf, "1e200": 1e200, "projection": 1e154}[kind]
    mon, ref = tm.Monitor(model), tm.Monitor(model)
    start, i, rejected = 0, 0, 0
    while start < rows.shape[0]:
        chunk = rows[start:start + sizes[i % len(sizes)]]
        i += 1
        stepped, error = [], None
        for x in chunk:
            try:
                stepped.append(ref.step(x))
            except ValueError as exc:
                error = str(exc)
                break
        before = snapshot(mon)
        if error is None:
            assert [key(r) for r in mon.feed(chunk)] == [key(r) for r in stepped]
            start += chunk.shape[0]
        else:
            with pytest.raises(ValueError) as info:
                mon.feed(chunk)
            assert (str(info.value), info.value.row) == (error, len(stepped))
            assert snapshot(mon) == before
            assert [key(r) for r in mon.feed(chunk[:len(stepped)])] == [key(r) for r in stepped]
            start += len(stepped) + 1  # the rejected row is left out
            rejected += 1
        assert snapshot(mon) == snapshot(ref)
    assert rejected >= 1


def test_a_block_fails_at_the_row_stepping_rejects():
    # row 2 makes the running sums of squares too large to scan and row 5
    # holds a value whose square overflows: the block raises row 2's error
    rng = np.random.default_rng(0)
    train = rng.standard_normal((100, 3))
    model = tm.build_monitor_model(tm.estimate_training(train), tm.identity_selection(3), train, window=10)
    block = rng.standard_normal((8, 3))
    block[2], block[5] = 1e153, 1e200
    stepped = tm.Monitor(model)
    with pytest.raises(ValueError, match="too large to scan"):
        for x in block:
            stepped.step(x)
    assert stepped.t == 2
    fed = tm.Monitor(model)
    with pytest.raises(ValueError, match="too large to scan") as info:
        fed.feed(block)
    assert info.value.row == 2
    assert snapshot(fed) == snapshot(tm.Monitor(model))


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
    """(stat, argmax_k, clamps) per step of ``z`` through the reference state and kernel."""
    stats = RingStats(train_sum.copy(), train_sumsq.copy(), m, window)
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
            stats.window_prefix(),
        )
        out.append((s, k, c))
    return out


@pytest.mark.parametrize("cells", [None, 100])
@pytest.mark.parametrize("cuts", [(), (1,), (1, 2), (7, 26, 27, 90), (60,)])
def test_scan_trace_in_pieces_counts_clamps_per_step(scan_path, cuts, cells):
    rng = np.random.default_rng(4)
    z = rng.standard_normal((150, 3))
    # zeros clamp the first post-change variances, as they would those of
    # the cells whose change point falls before time 1, which do not count
    z[:4, 0] = 0.0
    z[40:, 1] = 0.5  # a constant stretch clamps post-change variances
    ts, tq = rng.standard_normal(3) * 0.2, 60 + rng.standard_normal(3)
    # training sums no data could give clamp the early pre-change and pooled variances
    ts[2], tq[2] = 50.0, 0.0
    h = _BartlettTable().upto(60 + z.shape[0])
    state = _kernel.ScanState.fresh(3)
    got = []
    for lo, hi in zip((0, *cuts), (*cuts, z.shape[0])):
        # with ``cells``, blocks of a step or a few: a state's prefix sums come from many blocks
        with pinned(scan_path, cells):
            stat, k, clamped, state = _kernel.scan_trace(z[lo:hi], ts, tq, 60, 25, 0.4, h, VAR_FLOOR, state=state)
        got += list(zip(stat.tolist(), k.tolist(), clamped.tolist()))
        assert state.t == hi
    ref = step_reference(z, ts, tq, 60, 25, 0.4)
    assert got == ref
    assert sum(c for _, _, c in ref) > 0
    # the state after the last piece is what the per-step totals and buffer hold
    ring = ring_state(z, ts, tq, 60, 25)
    assert same_state(state, ring)
    assert same_state(_kernel.advance_state(_kernel.ScanState.fresh(3), z, 25), ring)
