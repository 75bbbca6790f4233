"""Pure-numpy windowed mixture-GLR scans.

``_scan_cells`` scans the candidate change points of a block of steps;
it is the only place that computes the post-change variances, the llr,
Bartlett division, mixture sum and tie rule. ``_pre_change_terms`` is
the only place that computes the pre-change and pooled terms, from the
training plus the running totals at a time, once per stream and time.
``scan_step`` calls both for one monitoring step. ``scan_trace`` calls
them block by block over a stretch of trace, of one monitor's streams or
of several monitors' side by side, and resumes from the ``ScanState`` an
earlier call returned. ``ScanState`` is every monitor's running state,
its prefix the running totals before each of its window's times, and
``_kahan`` is the one place its totals are added up, whether
``advance_state`` adds a row for ``Monitor.step`` or ``scan_trace`` adds
a block.

The cells are laid out stream-major, as (J, cells) arrays, from the
window buffer to the sum over streams. A tailored monitor watches few
streams (two or three is usual), so a (cells, J) layout would run every
elementwise pass as numpy inner loops only J long; stream-major, they
run over all the cells of a block. Each cell's J mixture terms are then
summed in the order numpy sums a contiguous row of J values, which keeps
the statistics bit for bit those of a (cells, J) scan. A stacked trace
scan lays G sets of J streams out as (G * J, cells) and keeps the sum
over streams, the clamp count and the tie rule per set.

The values and their squares travel together as one complex array, the
value in the real part and its square in the imaginary part, from the
trace scan's stream-major copy to the windows of the cell scan. One
complex cumulative sum then gives both window sums: complex addition is
two separate IEEE additions, so each part is its real cumulative sum bit
for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# (t, n2, J) cells per block of ``scan_trace``. A block holds three or
# four float64 temporaries of this size, so the budget bounds the scan's
# extra memory; fewer, larger blocks save numpy calls. A block of
# WIDE_STREAMS or more streams (a stack of sets) takes twice as many: one
# full-window step of 8 sets of 20 streams is 32160 cells.
TRACE_BLOCK_CELLS = 16384
WIDE_STREAMS = 64
# Steps per block at most. Narrow, short-window traces fit hundreds of
# steps in the cell budget; a scan that stops at a threshold would finish
# them all after the crossing.
TRACE_BLOCK_STEPS = 64
# A stack of sets (calibration replicates, simulated trials) holds no more
# than fill this many blocks at any one stage (``stack_size``).
STACK_BLOCKS = 16
# One row of ``_kahan``'s numpy row loop costs about as much as this many
# values added lane by lane (2.6 us against 75 ns a value, timed on 64-row
# blocks), so a block of this many lanes or more takes the row loop.
KAHAN_ROW_VALUES = 32


def mixture_terms(x: np.ndarray, p0: float) -> np.ndarray:
    """log(1 - p0 + p0 * exp(x)) evaluated without overflow.

    For x > 0 the identity x + log(p0 + (1 - p0) * exp(-x)) is used, so
    p0 = 1 reduces to x exactly. That form is evaluated on the whole
    array, which saves gathering the positive entries; statistics are
    mostly positive, so only the rare x <= 0 entries are gathered and
    given log1p(p0 * expm1(x)) instead. At p0 = 1 that form rounds to
    -inf for x below about -37, and those entries are given x.
    """
    x = np.asarray(x, dtype=float)
    # an array even for 0-d x, so it takes the patch of _mixture_terms
    return _mixture_terms(x, p0, x.copy(order="K") if p0 == 1.0 else np.empty_like(x))


def _mixture_terms(x: np.ndarray, p0: float, out: np.ndarray) -> np.ndarray:
    """``mixture_terms(x, p0)``, written into ``out`` and returned.

    At p0 = 1 ``out`` holds the values of x already: a copy, or x itself,
    which the cell scan passes to save a copy of its llr temporary. At any
    other p0 it is an array apart from x.
    """
    if p0 != 1.0:
        # x + log(p0 + (1 - p0) * exp(-x)), one pass at a time in ``out``,
        # without temporaries; each operation is the one the expression
        # makes, so the bits are its. exp(-x) overflows where x is very
        # negative; those entries are replaced below
        with np.errstate(over="ignore", invalid="ignore"):
            np.negative(x, out=out)
            np.exp(out, out=out)
            out *= 1.0 - p0
            out += p0
            np.log(out, out=out)
            out += x
    # statistics are mostly positive: one minimum tells whether any entry,
    # or a NaN, needs the mask at all
    if x.size and not x.min() > 0.0:
        neg = ~(x > 0.0)
        xn = x[neg]
        e = p0 * np.expm1(xn)
        if p0 == 1.0 and e.min() == -1.0:
            # expm1 rounds to -1 below about x = -37, where log1p would give
            # -inf; the term there is x itself
            low = e == -1.0
            e[low] = 0.0
            e = np.log1p(e)
            e[low] = xn[low]
            out[neg] = e
        else:
            out[neg] = np.log1p(e)
    return out


def scan_step(
    train_sum: np.ndarray,
    train_sumsq: np.ndarray,
    m: int,
    run_sum: np.ndarray,
    run_sumsq: np.ndarray,
    window_vals: np.ndarray,
    t: int,
    kmin: int,
    p0: float,
    cvals: np.ndarray,
    var_floor: float,
    prefix: np.ndarray,
):
    """Scan all candidate change points of one monitoring step.

    Parameters
    ----------
    train_sum, train_sumsq : (J,) arrays
        Frozen training sufficient statistics per monitored stream.
    m : int
        Training sample count.
    run_sum, run_sumsq : (J,) arrays
        Running totals over monitoring times 1..t (inclusive of time t).
    window_vals : (L, J) array
        Buffered values for times t-L+1..t, oldest first, L = t - kmin.
    t : int
        Current monitoring time, at least 2.
    kmin : int
        Smallest candidate change point, max(0, t - w - 1).
    p0 : float
        Mixture prior in (0, 1].
    cvals : (K,) array
        Bartlett factors C(k, t) for k = kmin..t-2, K = L - 1.
    var_floor : float
        Segment variances below this are clamped (and counted).
    prefix : (L, 2, J) array
        Running totals over monitoring times 1..k, of the values (row 0)
        and of their squares (row 1), for k = t-L..t-1: row i holds the
        totals before the time of window_vals[i], as ``ScanState.prefix``
        does.

    Returns
    -------
    (stat, argmax_k, clamped) : (float, int, int)
        Maximum corrected mixture statistic over candidates, the smallest
        k attaining it, and the number of clamped segment variances.
    """
    L, J = window_vals.shape
    # the step's arrays are written in place: np.stack of a few small
    # arrays costs several times their copies. The totals at times
    # t - L..t: the candidates t - L..t - 2, and t
    tots = np.empty((L + 1, 2, J))
    tots[:L] = prefix
    tots[L, 0] = run_sum
    tots[L, 1] = run_sumsq
    train = np.concatenate([train_sum, train_sumsq]).reshape(2, 1, J)
    a, low = _pre_change_terms(train, m, t - L, tots[:, :, None], var_floor)
    low[L - 1] = 0  # time t - 1 is no candidate
    a = a.reshape(L + 1, J).T
    rev = np.empty((J, 1, L), dtype=complex)  # newest first, values and squares
    rev.real[:, 0] = window_vals.T[:, ::-1]
    np.multiply(rev.real, rev.real, out=rev.imag)
    factors = np.empty((1, L))  # newest first; entry 0 (n2 = 1) only needs a positive value
    factors[0, 0] = 1.0
    factors[0, 1:] = cvals[::-1]
    stat, best, clamped = _scan_cells(
        a[:, L:],
        a[:, None, L - 1::-1],
        rev,
        factors,
        np.array([L - 1]),
        p0,
        var_floor,
        low.sum(keepdims=True),
    )
    return float(stat[0, 0]), t - 2 - int(best[0, 0]), int(clamped[0, 0])


def _pre_change_terms(train, m: int, k0: int, tots, var_floor: float):
    """The pre-change terms a(k) = n1 * log(max(var_1, floor)) of the times k = k0, k0 + 1, ... that ``tots`` holds.

    ``tots`` (n, 2, G, J) holds the running totals over monitoring times
    1..k of the values (row 0) and of their squares (row 1), k >= 0, and
    ``train`` (2, G, J) the training totals. Candidate k's pre-change
    segment holds the training values and those of times 1..k, so n1 =
    m + k, sum1 = training sum + running sum at k, ssq1 likewise, and
    var_1 = (ssq1 - sum1 * sum1 / n1) / n1: no segment sum is taken from
    a total, and no cancellation grows with the stream's scale. a(k)
    depends on k alone, so every step that has k as a candidate reads the
    same a(k); a(t) is also the pooled term n_T * log(var_T) of the step
    at time t. Returns a (n, G, J) and each set's count of streams whose
    var_1 is below the floor, (n, G).
    """
    n1 = np.arange(m + k0, m + k0 + tots.shape[0], dtype=float)[:, None, None]
    sum1 = train[0] + tots[:, 0]
    a = train[1] + tots[:, 1]  # ssq1
    sum1 *= sum1
    sum1 /= n1
    a -= sum1
    a /= n1
    low = np.zeros(a.shape[:2], dtype=np.int64)
    # with no entry below the floor the maximum changes no bit, NaN included
    if a.min() < var_floor:
        low = (a < var_floor).sum(axis=2)
        np.maximum(a, var_floor, out=a)
    np.log(a, out=a)
    a *= n1
    return a, low


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each cell's sum over its J terms, (G, J, ...) to (G, ...), as numpy sums a contiguous row of J values.

    That is the order of a (cells, J) row sum, bit for bit, written as
    passes over whole (G, cells) rows. numpy adds a row of fewer than 8
    values left to right, which a sum over axis 1 also does; it adds a
    row of 8 to 128 into 8 running sums, stride 8, which it combines
    pairwise and then adds the rest to; and a longer row as the sum of two
    halves, the first a multiple of 8 long. The reduction starts from 0,
    which only turns a sum of -0.0 into 0.0. At G * J = 320 streams the
    passes took a half to a quarter of the time of a row sum over a
    (G, cells, J) copy, for J = 8 to 20.
    """
    if terms.shape[1] < 8:
        return terms.sum(axis=1)
    total = _pairwise(terms)
    total += 0.0
    return total


def _pairwise(terms: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of 8 or more terms per cell, along axis 1 of (G, J, ...)."""
    J = terms.shape[1]
    if J > 128:
        half = J // 2
        half -= half % 8
        total = _pairwise(terms[:, :half])
        total += _pairwise(terms[:, half:])
        return total
    acc = terms[:, :8].copy()
    end = J - J % 8
    for i in range(8, end, 8):
        acc += terms[:, i:i + 8]
    total = acc[:, 0] + acc[:, 1]
    total += acc[:, 2] + acc[:, 3]
    right = acc[:, 4] + acc[:, 5]
    right += acc[:, 6] + acc[:, 7]
    total += right
    for j in range(end, J):
        total += terms[:, j]
    return total


def _scan_cells(log_t, pre, rev, cvals, counts, p0, var_floor, clamped, sets=1):
    """The windowed mixture-GLR scan of a block of B steps, for G sets of J streams.

    The block is one (G * J, B, L) rectangle: step b's entry i stands for
    the post-change segment of length n2 = i + 1, the candidate k = t -
    n2. Entry 0 (n2 = 1) is no candidate; it only keeps every pass on
    whole contiguous arrays, as the windows' cumulative sums come, and is
    left out of the clamps and the maximum. Every array is stream-major:
    monitors watch a handful of streams, so a (cells, J) layout would give
    each of the scan's elementwise passes numpy inner loops only J long. A
    step with fewer than L - 1 candidates (t <= L - 1, early in a trace)
    has cells with k < 0 too, whose windows reach times before 1: they are
    computed with the rest, kept out of the clamp counts and set to -inf
    before the maximum. A set is one monitor's streams; every pass but
    three is elementwise per stream, and those three (the clamp count, the
    mixture sum over the J streams and the tie rule) run per set, so each
    set's results are those of a scan of it alone, bit for bit.
    ``scan_step`` passes one set; ``scan_trace`` passes as many as its
    trace holds. The sums of each segment's values and squares come from
    one cumulative sum of the complex windows, whose real and imaginary
    parts are the two real cumulative sums bit for bit.

    Parameters
    ----------
    log_t : (G * J, B) array
        The pooled term n_T * log(var_T) of each step, a(t) of
        ``_pre_change_terms``.
    pre : (G * J, B, L) array
        The pre-change term a(k) of each entry, a(t - 1), a(t - 2), ...;
        -inf where k < 0.
    rev : (G * J, B, L) complex array
        The values at times t, t - 1, ..., t - L + 1 of each step, newest
        first, as real parts, and their squares as imaginary parts.
    cvals : (B, L) array
        The Bartlett factor C(k, t) of each entry; any value at entry 0,
        finite and positive where k < 0.
    counts : (B,) int array
        The admissible cells of each step, n2 = 2..counts[b] + 1; at least
        1, at most L - 1.
    clamped : (G, B) int array
        Each set's clamped pre-change and pooled variances of each step;
        the clamped post-change variances are added to it.
    sets : int
        G, the number of sets; each set's J streams are adjacent rows.

    Returns
    -------
    (stat, best, clamped) : (G, B) arrays
        Per set and step, the largest corrected mixture statistic, the
        index i = n2 - 2 of the longest segment (smallest k = t - 2 - i)
        attaining it, and the number of clamped segment variances.
    """
    G = sets
    S, B, L = rev.shape
    J = S // G
    # a(k) is -inf where k < 0, so those cells' llr is +inf, which takes the
    # mixture's x > 0 form and is masked below
    llr = np.subtract(log_t[:, :, None], pre)
    # the sums of the newest n2 values of each window and of their squares:
    # one cumulative sum along the window axis. A complex addition is two
    # separate IEEE additions, so the real and imaginary parts are the two
    # real cumulative sums bit for bit, for the numpy calls of one
    n2 = np.arange(1, L + 1, dtype=float)
    sums = np.cumsum(rev, axis=2)
    # the variances (ssq - sum * sum / n) / n, computed in place
    var_2 = np.square(sums.real)
    var_2 /= n2
    np.subtract(sums.imag, var_2, out=var_2)
    var_2 /= n2
    del sums
    var_2[:, :, 0] = 1.0  # no segment
    # the two-point segment, each step's first cell, is cancellation-prone
    # from cumulative sums; its exact variance is ((a - b) / 2)^2
    var_2[:, :, 1] = 0.25 * np.square(rev.real[:, :, 0] - rev.real[:, :, 1])
    outside = np.arange(L) > counts[:, None] if counts[0] < L - 1 else None  # cells with k < 0
    # with no entry below the floor the maximum changes no bit, NaN included
    if var_2.min() < var_floor:
        low = var_2 < var_floor
        low[:, :, 0] = False
        if outside is not None:
            low[:, outside] = False
        clamped += low.reshape(G, J, B, L).sum(axis=(1, 3))
        np.maximum(var_2, var_floor, out=var_2)
    np.log(var_2, out=var_2)
    var_2 *= n2
    llr -= var_2
    llr *= 0.5  # 0.5 * ((n_T * log(var_T) - n1 * log(var_1)) - n2 * log(var_2))
    llr /= cvals
    llr[:, :, 0] = 1.0  # any positive value takes the mixture's x > 0 form
    terms = _mixture_terms(llr, p0, llr if p0 == 1.0 else var_2).reshape(G, J, B, L)
    # each cell's J terms are summed in the order numpy sums a contiguous
    # row of J values, as a (cells, J) scan sums them, so the statistics
    # match it bit for bit
    lam = _row_sums(terms)
    if outside is not None:
        lam[:, outside] = -np.inf
    # the largest n2 is the smallest k, which wins ties
    at = L - 1 - np.argmax(lam[:, :, :0:-1], axis=2)
    return lam.reshape(G * B, L)[np.arange(G * B), at.ravel()].reshape(G, B), at - 1, clamped


class ScanState(NamedTuple):
    """The running state of a monitor's scan: where a trace scan stopped, or where ``Monitor.step`` stands.

    ``total`` holds the running sums over monitoring times 1..t of the
    values (row 0) and of their squares (row 1), and ``comp`` their Kahan
    compensations; ``tail`` holds the values at times t - L + 1..t, oldest
    first, L = min(t, w + 1); ``prefix`` holds the running sums at the
    times before the tail's, over times 1..k for k = t - L..t - 1 (row i
    those before the time of tail[i]), from which each candidate's
    pre-change segment is the training plus the running sums at k. No
    function changes a state's arrays in place: each returns a new state.
    A monitor's state holds J streams, total (2, J), tail (L, J) and
    prefix (L, 2, J); a stacked trace scan's holds G sets of them, total
    (2, G, J), tail (L, G, J) and prefix (L, 2, G, J).
    """

    total: np.ndarray
    comp: np.ndarray
    tail: np.ndarray
    prefix: np.ndarray
    t: int

    @classmethod
    def fresh(cls, *streams: int) -> "ScanState":
        """The state before monitoring time 1 of J streams, ``fresh(J)``, or of G sets of them, ``fresh(G, J)``."""
        return cls(np.zeros((2, *streams)), np.zeros((2, *streams)), np.zeros((0, *streams)),
                   np.zeros((0, 2, *streams)), 0)

    def pick(self, g: int) -> "ScanState":
        """The state of set g of a stacked state, as views of its arrays."""
        return ScanState(self.total[:, g], self.comp[:, g], self.tail[:, g], self.prefix[:, :, g], self.t)


def _lane_by_lane(rows: int, lanes: int) -> bool:
    """Whether ``_kahan`` adds a block of ``rows`` x ``lanes`` values lane by lane."""
    return lanes < min(rows, KAHAN_ROW_VALUES)


def _kahan(total, comp, v, run=None):
    """Add the rows of v, (n, 2, J) or (n, 2, G, J), to the running totals with Kahan's compensated steps.

    Returns the new (total, comp); ``run[i]``, when given, receives the
    totals after row i. Every running total of the library goes through
    here, one time after another, so they agree bit for bit however the
    times are grouped.

    Each lane (a value or square of one stream) is added up alone, so a
    block can be added lane by lane in Python floats, the same four IEEE
    double operations per value in the same order, for a Python loop over
    its values instead of four numpy calls per row. The path follows the
    block's value count, rows x lanes, against its rows: lane by lane when
    the block holds fewer values than rows squared (more rows than lanes,
    so the conversions are shared by many values) and fewer than
    ``KAHAN_ROW_VALUES`` per row. A live monitor's scan block (27 rows of 6
    lanes at w = 200 and J = 3) goes lane by lane; a single row
    (``Monitor.step``), a 64-row block of 40 lanes and the wide stacks of
    calibration and simulated trials, whose rows hold hundreds of lanes,
    take the row loop.
    """
    n = v.shape[0]
    if _lane_by_lane(n, total.size):
        totals, comps, runs = total.ravel().tolist(), comp.ravel().tolist(), []
        for j, lane in enumerate(v.reshape(n, -1).T.tolist()):
            s, c = totals[j], comps[j]
            sums = []
            for x in lane:
                y = x - c
                t = s + y
                c = (t - s) - y
                s = t
                sums.append(s)
            totals[j], comps[j] = s, c
            runs.append(sums)
        if run is not None:
            run[...] = np.array(runs).T.reshape(run.shape)
        return np.array(totals).reshape(total.shape), np.array(comps).reshape(comp.shape)
    for i, row in enumerate(v):
        y = row - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if run is not None:
            run[i] = s
    return total, comp


def advance_state(state: ScanState, z: np.ndarray, window: int) -> ScanState:
    """The state after the rows of ``z``, (n, J), without scanning them.

    The new tail and prefix are copies of at most w + 1 rows, so they keep
    neither the old state nor ``z`` alive.
    """
    n, J = z.shape
    run = np.empty((n, 2, J))
    # (n, 2, J) rows of values and squares; np.stack costs twice as much per call
    total, comp = _kahan(state.total, state.comp, np.concatenate([z, z * z], axis=1).reshape(n, 2, J), run)
    cap = window + 1
    tail = np.concatenate([state.tail[max(0, state.tail.shape[0] + n - cap):], z[-cap:]])
    # the totals at times t - held..t + n - 1, of which the last L are the new prefix
    tots = np.concatenate([state.prefix, state.total[None], run])[:-1]
    return ScanState(total, comp, tail, tots[tots.shape[0] - tail.shape[0]:], state.t + n)


def _block_cells(n_streams: int) -> int:
    """The cell budget of a block of ``n_streams`` streams."""
    return 2 * TRACE_BLOCK_CELLS if n_streams >= WIDE_STREAMS else TRACE_BLOCK_CELLS


def _block_end(t0: int, T: int, n_streams: int, window: int, budget: int) -> int:
    """End (exclusive) of the block of steps starting at t0.

    The block grows while it holds fewer than TRACE_BLOCK_STEPS steps and
    its (steps, longest segment - 1, n_streams) rectangle stays within
    ``budget`` cells; it holds at least one step. A stacked scan counts
    the streams of all the sets it still scans.
    """
    cap = window + 1
    # the block's cells grow with t1, so the end is the first t1 past the
    # budget, found by bisection up to the step and stretch limits
    lo = t0 + 1
    hi = max(lo, min(T, t0 + TRACE_BLOCK_STEPS - 1) + 1)
    while lo < hi:
        t1 = (lo + hi) // 2
        if (t1 + 1 - t0) * (min(t1, cap) - 1) * n_streams <= budget:
            lo = t1 + 1
        else:
            hi = t1
    return lo


def stack_size(n_streams: int, window: int, steps: int, held: int) -> int:
    """How many sets of ``n_streams`` streams, each holding ``steps`` steps at a time, to handle as one stack.

    The one sizing rule of calibration batches and of simulated trial
    groups. A calibration replicate holds its whole stream at once; a
    trial group is drawn and scanned a stretch of steps at a time, and
    ``steps`` is its longest stretch. As many sets as fill one step of a
    scan block at its longest segment, taken as min(steps, w + 1), so
    every block holds a step of each of them; the block is taken as wide
    when 8 sets make it so, so sets of 8 or more streams fill the doubled
    budget. And no more than fill STACK_BLOCKS blocks with what one set
    holds at its largest stage: ``held`` floats while its caller prepares
    it, or, while it is scanned, its projections, and the scan's
    stream-major copy of them with their squares (two floats each) and
    the pre-change terms of their times (one float), which reach w + 1
    steps back.
    """
    budget = _block_cells(8 * n_streams)
    scan = budget // (n_streams * min(steps, window + 1))
    scanned = (4 * steps + 3 * (window + 1)) * n_streams
    return max(1, min(scan, STACK_BLOCKS * budget // max(held, scanned)))


def scan_trace(
    z: np.ndarray,
    train_sum: np.ndarray,
    train_sumsq: np.ndarray,
    m: int,
    window: int,
    p0: float,
    h: np.ndarray,
    var_floor: float,
    threshold: float | None = None,
    state: ScanState | None = None,
):
    """Scan every step of a stretch of trace, bit for bit as ``scan_step`` would.

    The rows of ``z`` are the values at times state.t + 1..state.t + T;
    the scan goes on from ``state`` (by default the state before time 1)
    and returns the state after its last step, so a trace fed in pieces
    gives the statistics it gives when scanned whole.

    ``z`` holds one monitor's J streams, (T, J), or G monitors' side by
    side, (T, G, J), each set with its own training totals; the sets
    share m, the window, p0 and the Bartlett factors. Each set's results
    are bit for bit those of a scan of it alone, and a stacked scan
    saves the numpy calls of G scans.

    Steps are processed in blocks of about TRACE_BLOCK_CELLS (t, n2,
    stream) cells, where n2 = t - k is the post-change segment length.
    Each block goes through the cell scan ``scan_step`` uses, as one
    rectangle of n2 = 2..min(t1 - 1, window + 1) for its B steps; the
    cells with k < 0 of its early steps are masked. Each block first adds
    its rows to the running totals through ``_kahan``, as
    ``advance_state`` does, and computes from them the pre-change term
    a(k) of each of its times once per stream (``_pre_change_terms``);
    every later cell reads a(k) through a strided window, as it reads the
    values. The scan copies the whole stretch once, each value and its
    square as one complex number; the windows are strided views of that
    copy, and the running totals read its rows through a float view. Every
    block is sized by the cell budget of the streams it scans, with or
    without a threshold: a caller that expects an early stop hands over a
    short stretch, as simulated trials do.

    Parameters
    ----------
    z : (T, J) or (T, G, J) array
        Values at the next T monitoring times.
    train_sum, train_sumsq : (J,) or (G, J) arrays
        Frozen training sufficient statistics of every stream.
    m, p0, var_floor
        As for ``scan_step``.
    window : int
        Window length w; segments are at most w + 1 long.
    h : array
        h[a] = ``mixmonitor._h(a)`` for 2 <= a <= m + state.t + T.
    threshold : float, optional
        Stop each set at its first step whose statistic reaches it. One
        monitor's scan ends there. In a stacked scan a set that has
        crossed leaves the later blocks, and the scan ends once every set
        has crossed.
    state : ScanState, optional
        Where an earlier scan of the same trace stopped; it is not changed.

    Returns
    -------
    (stat, argmax_k, clamped, state)
        For each scanned step, the statistic, the smallest maximizing k
        and the number of clamped segment variances that ``scan_step``
        returns at that time (a time with no candidate, t = 1, reports
        -inf, -1 and 0), as (T,) arrays, or (G, T) for G sets; and the
        state after the last scanned step. All T steps are scanned unless
        the scan stopped at a threshold: one monitor's arrays then end at
        its crossing, and its state is the one there; a stacked scan's
        end at the last set's crossing, or at T if a set never crossed,
        and hold -inf, -1 and 0 after each set's own crossing. A stacked
        scan with a threshold returns the state after time
        state.t + T of the sets that never crossed, in their order, so
        the next stretch of their traces can resume it; None when every
        set crossed. The state's tail may be a view into the scan's copy of
        the stretch; copy it to keep it without keeping the copy.
    """
    z = np.asarray(z, dtype=float)
    T, *streams = z.shape
    sets, J = streams[:-1], streams[-1]  # sets is [] for one monitor, [G] for G
    if state is None:
        state = ScanState.fresh(*streams)
    t_prev = state.t
    t_end = t_prev + T
    G = math.prod(sets)
    stat = np.full((G, T), -np.inf)
    argmax_k = np.full((G, T), -1, dtype=np.int64)
    clamped = np.zeros((G, T), dtype=np.int64)
    cap = window + 1
    # one monitor is a stack of one set inside the scan
    train = np.stack([train_sum, train_sumsq]).reshape(2, G, J)
    total, comp = state.total.reshape(2, G, J), state.comp.reshape(2, G, J)
    held = state.tail.shape[0]
    # h[m + k] for k = t_prev - w - 1..t_end, and hrev[t - t_prev, l] = h[m + t - 1 - l],
    # the h[m + k] of step t's cell n2 = l + 1; k < 0 reads h[2], which keeps
    # the factors of those cells finite and positive
    hrev = sliding_window_view(h[np.maximum(np.arange(m + t_prev - cap, m + t_end + 1), 2)], cap)[:, ::-1]

    # The values and their squares, stream-major: both[i, s] holds stream
    # i (set after set, J streams each) at time first + s as its real part
    # and the value's square as its imaginary part. The columns reach w + 1
    # times back from the first step, zero columns standing for times
    # before 1, which only cells with k < 0 reach, and on to the stretch's
    # last time. Next to them, pre[i, s] holds stream i's pre-change term
    # a(k) of k = first - 1 + s, -inf where k < 0, and lows[g, s] set g's
    # count of streams whose var_1 is clamped at that k; each block fills in
    # those of its own times. When sets leave a stacked scan, the columns
    # the others still read are copied apart
    pad = cap - held
    first = t_prev - cap + 1
    both = np.empty((G * J, t_end - first + 1), dtype=complex)
    values = both.real
    values[:, :pad] = 0.0
    values[:, pad:pad + held] = state.tail.reshape(held, G * J).T
    values[:, pad + held:] = z.reshape(T, G * J).T
    np.multiply(values, values, out=both.imag)
    pre = np.empty((G * J, t_end - first + 2))
    lows = np.empty((G, t_end - first + 2), dtype=np.int64)
    pre[:, :pad] = -np.inf
    lows[:, :pad] = 0
    # the running totals at times t_prev - held..t_prev; the returned state's
    # prefix is cut from these and the blocks' totals, kept in ``hist`` as
    # (first time, totals) pieces back to w + 1 times before the next step
    known = np.concatenate([state.prefix.reshape(held, 2, G, J), total[None]])
    a, low = _pre_change_terms(train, m, t_prev - held, known, var_floor)
    pre[:, pad:pad + held + 1] = a.reshape(held + 1, G * J).T
    lows[:, pad:pad + held + 1] = low.T
    hist = [(t_prev - held, known)]

    def views(both, pre):
        """The windows of ``both`` and ``pre`` and the running totals' rows of ``both``, as views.

        rev[i, s, l] holds the value and square of stream i at time first
        + s + w - l, strided along each stream's row, so no window is
        copied, and prev[i, s, l] its a(k) of k = first - 1 + s + w - l.
        rows[s] holds the values and squares of every stream at time
        first + s, (2, G, J), a float view of ``both``: the rows the
        running totals add one time at a time.
        """
        rev = sliding_window_view(both, cap, axis=1)[..., ::-1]
        prev = sliding_window_view(pre, cap, axis=1)[..., ::-1]
        rows = both.view(float).reshape(-1, J, both.shape[1], 2)
        return rev, prev, np.moveaxis(rows, (2, 3), (0, 1))

    rev, prev, rows = views(both, pre)

    def add_rows(t0, t1):
        """Add the rows of times t0..t1 - 1 to the running totals and fill in their a(k).

        Returns the new (total, comp) and a contiguous copy of the rows:
        each of the running totals' small per-row numpy calls costs less on
        it than on the strided view.
        """
        block_rows = np.ascontiguousarray(rows[t0 - first:t1 - first])
        run = np.empty(block_rows.shape)
        totals = _kahan(total, comp, block_rows, run)
        a, low = _pre_change_terms(train, m, t0, run, var_floor)
        pre[:, t0 - first + 1:t1 - first + 1] = a.reshape(t1 - t0, -1).T
        lows[:, t0 - first + 1:t1 - first + 1] = low.T
        hist.append((t0, run))
        return *totals, block_rows

    def results(t, total, comp):
        """The arrays up to time t, and the state there of the sets in ``alive``."""
        n = t - t_prev
        L = min(t, cap)
        now = (alive.size, J) if sets else streams
        tail = both.real[:, t - first + 1 - L:t - first + 1].T.reshape(L, *now)
        since = hist[0][0]
        prefix = np.concatenate([tots for _, tots in hist])[t - L - since:t - since].reshape(L, 2, *now)
        state = ScanState(total.reshape(2, *now), comp.reshape(2, *now), tail, prefix, t)
        return *(a[:, :n].reshape(*sets, n) for a in (stat, argmax_k, clamped)), state

    if t_prev == 0 and T:  # time 1 has no candidate; it only enters the totals and a(1)
        total, comp, _ = add_rows(1, 2)
    alive = np.arange(G)  # the sets still scanned, in the order of the arrays above
    t0 = max(2, t_prev + 1)
    while t0 <= t_end:
        S = alive.size * J
        t1 = _block_end(t0, t_end, S, window, _block_cells(S))
        B = t1 - t0
        while len(hist) > 1 and hist[1][0] <= t0 - 1 - cap:
            del hist[0]
        start = total, comp
        total, comp, block_rows = add_rows(t0, t1)
        ts = np.arange(t0, t1)
        out = slice(t0 - t_prev - 1, t1 - t_prev - 1)
        L = min(t1 - 1, cap)  # longest admissible segment in the block
        # every step's clamped pooled variance, a(t)'s, and pre-change ones,
        # those of a(k) for t - w - 1 <= k <= t - 2, from the counts of
        # k = t0 - w - 1..t1 - 1, 0 where k < 0
        c0 = t0 - first + 1  # the column of a(t0)
        lows_b = lows[:, c0 - cap:c0 + B]
        if lows_b.any():
            run_lows = np.zeros((alive.size, cap + B + 1), dtype=np.int64)
            np.cumsum(lows_b, axis=1, out=run_lows[:, 1:])
            base = run_lows[:, cap - 1:cap - 1 + B] - run_lows[:, :B] + lows_b[:, cap:]
        else:
            base = np.zeros((alive.size, B), dtype=np.int64)
        s0 = t0 - window - first  # the window of step t0
        block_stat, best, block_clamped = _scan_cells(
            pre[:, c0:c0 + B],
            prev[:, s0:s0 + B, :L],
            rev[:, s0:s0 + B, :L],
            0.5 * ((hrev[t0 - t_prev:t1 - t_prev, :L] + h[1:L + 1]) - h[m + t0:m + t1, None]),
            np.minimum(ts, cap) - 1,  # admissible cells, 2 <= n2 <= min(t, w + 1)
            p0,
            var_floor,
            base,
            alive.size,
        )
        into = (slice(None), out) if alive.size == G else (alive, out)
        stat[into] = block_stat
        argmax_k[into] = ts - 2 - best
        clamped[into] = block_clamped
        t0 = t1
        if threshold is None:
            continue
        hit = block_stat >= threshold
        crossed = hit.any(axis=1)
        if not crossed.any():
            continue
        if not sets:
            # one monitor ends at its crossing, with the state there; compensations
            # are not kept per step, so the block's rows up to it are added again
            t = ts[0] + int(np.argmax(hit[0]))
            return results(t, *_kahan(*start, block_rows[:t + 1 - ts[0]]))
        # a set that crossed keeps its steps up to its first crossing
        firsts = np.argmax(hit[crossed], axis=1)
        for g, i in zip(alive[crossed].tolist(), firsts.tolist()):
            after = slice(out.start + i + 1, out.stop)
            stat[g, after] = -np.inf
            argmax_k[g, after] = -1
            clamped[g, after] = 0
        keep = ~crossed
        if not keep.any():
            n = out.start + int(firsts.max()) + 1
            return *(a[:, :n].reshape(*sets, n) for a in (stat, argmax_k, clamped)), None
        # and leaves the later blocks and the returned state
        alive = alive[keep]
        total, comp, train = total[:, keep], comp[:, keep], train[:, keep]
        hist = [(since, tots[:, :, keep]) for since, tots in hist]
        # the others keep their columns from time t0 - w - 1 on, the first
        # that the state's tail or a later window reads
        s = t0 - cap - first
        both = both.reshape(-1, J, both.shape[1])[keep, :, s:].reshape(alive.size * J, -1)
        pre = pre.reshape(-1, J, pre.shape[1])[keep, :, s:].reshape(alive.size * J, -1)
        lows = lows[keep, s:]
        first = t0 - cap
        rev, prev, rows = views(both, pre)
    return results(t_end, total, comp)
