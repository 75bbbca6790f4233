"""Pure-numpy windowed mixture-GLR scans.

A scan scores every candidate change point k of every step, one cell per
step, stream and post-change length n2 = t - k. ``_cell_terms`` is the
only place that computes a cell's term (the llr from the post-change
variance, Bartlett division, the mixture), ``_pre_change_terms`` the
only place that computes the pre-change and pooled terms, from the
training plus the running totals at a time, once per stream and time.
Two layouts of cells call them. ``_scan_cells`` scans a block of steps
as one rectangle, steps by lengths, stream-major; ``_sweep_cells`` sweeps
a block by segment length, each pass one length of every step and
stream, time-major. ``scan_step`` scans one monitoring step as a
rectangle. ``scan_trace`` scans a stretch of trace block by block, of
one monitor's streams or of several monitors' side by side, sweeping the
blocks wide enough to pay for it (``_next_block``), and resumes from the
``ScanState`` an earlier call returned. ``ScanState`` is every monitor's
running state, its prefix the running totals before each of its window's
times, and ``_kahan`` is the one place its totals are added up, whether
``advance_state`` adds a row for ``Monitor.step`` or ``scan_trace`` adds
a block. The Bartlett factor of a cell, C(k, t) = (h[m + k] + h[t - k] -
h[m + t]) / 2, comes from one read-only table h[a] = ``_h(a)``
(``h_table``), which ``scan_trace`` reads for itself: it takes the rows,
the model's training sums, m, w, p0 and the variance floor, and a state.

The rectangle is laid out stream-major, as (J, cells) arrays, from the
windows to the sum over streams: a tailored monitor watches few streams
(two or three is usual), so a (cells, J) layout would run every
elementwise pass as numpy inner loops only J long; stream-major, they
run over all the cells of a block. Its windows hold each value and its
square as one complex number, so one complex cumulative sum gives both
window sums: complex addition is two separate IEEE additions, so each
part is its real cumulative sum bit for bit. The sweep needs no window:
a pass adds one time-major row of values, and one of squares, to the
window sums of the pass before, the same additions in the same order.
Each cell's J mixture terms are summed in the order numpy sums a
contiguous row of J values on either path, which keeps the statistics
bit for bit those of a (cells, J) scan. A stacked trace scan lays G sets
of J streams side by side and keeps the sum over streams, the clamp
count and the tie rule per set.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import digamma

# (t, n2, J) cells per rectangle block of ``scan_trace``. A block holds
# three or four float64 temporaries of this size, so the budget bounds
# the scan's extra memory; fewer, larger blocks save numpy calls. A block
# of WIDE_STREAMS or more streams (a stack of sets) takes twice as many:
# one full-window step of 8 sets of 20 streams is 32160 cells.
TRACE_BLOCK_CELLS = 16384
WIDE_STREAMS = 64
# Steps per block at most, but for a swept block without a threshold.
# Narrow, short-window traces fit hundreds of steps in the cell budget; a
# scan that stops at a threshold would finish them all after the crossing.
TRACE_BLOCK_STEPS = 64
# A stack of sets (calibration replicates, simulated trials) holds no more
# than fill this many blocks at any one stage (``stack_size``).
STACK_BLOCKS = 16
# One row of ``_kahan``'s numpy row loop costs about as much as this many
# values added lane by lane (1.9 us a row of up to 160 lanes against
# 115 ns a value, timed on blocks of 27 to 3000 rows), so a block of this
# many lanes or more takes the row loop.
KAHAN_ROW_VALUES = 16
# A block whose every segment length holds this many values or more,
# steps x streams, is swept by segment length rather than scanned as one
# rectangle; a swept block holds at most SWEEP_MAX_VALUES values a pass,
# and SWEEP_CHUNK_VALUES with a threshold (``_next_block``). Timed on one
# full-window stretch (w = 200) each way, the rectangle took 0.65 to 0.92
# of the sweep's time at 900 to 1800 values a pass (J = 2, 3 and 20); the
# sweep won x1.21 at 3072 values (J = 3), x1.28 at 2560 (J = 20) and x1.5
# to x1.7 at 5000 values or more.
SWEEP_VALUES = 3000
SWEEP_MAX_VALUES = 1 << 16
SWEEP_CHUNK_VALUES = 12000


def _h(a) -> np.ndarray:
    """a * log(a) - a * digamma((a - 1) / 2), the per-segment term of the Bartlett correction."""
    a = np.asarray(a, dtype=float)
    return a * np.log(a) - a * digamma((a - 1.0) / 2.0)


# h[a] = _h(a) for the segment lengths a = 2..len - 1 (0 and 1 hold NaN),
# read-only. ``h_table`` swaps in a longer table rather than growing this
# one in place, so threads may share it: a scan keeps the table it read,
# and of two threads that grow it at once the later swap only decides
# which valid table the next reader starts from.
_H_TABLE = np.full(2, np.nan)
_H_TABLE.flags.writeable = False


def h_table(amax: int) -> np.ndarray:
    """The kernel's read-only table h[a] = ``_h(a)``, valid for segment lengths 2..amax."""
    global _H_TABLE
    h = _H_TABLE
    n = h.shape[0]
    if amax < n:
        return h
    grown = np.empty(max(amax + 1, 2 * n, 512))
    grown[:n] = h
    grown[n:] = _h(np.arange(n, grown.shape[0]))
    grown.flags.writeable = False
    _H_TABLE = grown
    return grown


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
    stat, best, clamped = _scan_cells(
        a[:, L:],
        a[:, None, L - 2::-1],
        rev,
        cvals[None, ::-1],
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

    numpy adds a row of fewer than 8 values left to right, which a sum
    over axis 1 also does, at a fraction of the cost of a copy; a longer
    row it sums pairwise, so those cells are summed as rows of a
    contiguous (G, ..., J) copy.
    """
    if terms.shape[1] < 8:
        return terms.sum(axis=1)
    return np.ascontiguousarray(np.moveaxis(terms, 1, -1)).sum(axis=-1)


def _segment_variances(sums, ssq, n2):
    """The post-change variances (ssq - sum * sum / n2) / n2 of segments of n2 values, as a new array."""
    var_2 = np.square(sums)
    var_2 /= n2
    np.subtract(ssq, var_2, out=var_2)
    var_2 /= n2
    return var_2


def _cell_terms(var_2, llr, n2, cvals, p0, var_floor):
    """The mixture terms of a batch of cells, from their post-change variances and pre-change and pooled terms.

    The one place the scans compute a cell's statistic term, elementwise:
    var_2 holds each cell's post-change variance, llr its a(t) - a(k)
    (``_pre_change_terms``), and n2 and cvals, which broadcast against
    them, its post-change length and Bartlett factor C(k, t). Both arrays
    are overwritten. The variances below ``var_floor`` are clamped to it;
    with none below, the maximum would change no bit, NaN included, so it
    is skipped. Returns the terms, held in llr's or var_2's memory, and
    the mask of the clamped variances, or None when there are none.
    """
    low = None
    if var_2.min() < var_floor:
        low = var_2 < var_floor
        np.maximum(var_2, var_floor, out=var_2)
    np.log(var_2, out=var_2)
    var_2 *= n2
    llr -= var_2
    llr *= 0.5  # 0.5 * ((n_T * log(var_T) - n1 * log(var_1)) - n2 * log(var_2))
    llr /= cvals
    return _mixture_terms(llr, p0, llr if p0 == 1.0 else var_2), low


def _scan_cells(log_t, pre, rev, cvals, counts, p0, var_floor, clamped, sets=1):
    """The windowed mixture-GLR scan of a block of B steps as one rectangle, for G sets of J streams.

    The block is one (G * J, B, L - 1) rectangle: step b's entry i stands
    for the post-change segment of length n2 = i + 2, the candidate k = t
    - n2. Every array is stream-major: monitors watch a handful of
    streams, so a (cells, J) layout would give each of the scan's
    elementwise passes numpy inner loops only J long. A step with fewer
    than L - 1 candidates (t <= L - 1, early in a trace) has cells with k
    < 0 too, whose windows reach times before 1: they are computed with
    the rest, kept out of the clamp counts and set to -inf before the
    maximum. A set is one monitor's streams; every pass but three is
    elementwise per stream, and those three (the clamp count, the mixture
    sum over the J streams and the tie rule) run per set, so each set's
    results are those of a scan of it alone, bit for bit. ``scan_step``
    passes one set; ``scan_trace`` passes the sets of a block too narrow
    for its sweep (``_sweep_cells``). The sums of each segment's values
    and squares come from one cumulative sum of the complex windows, whose
    real and imaginary parts are the two real cumulative sums bit for bit.

    Parameters
    ----------
    log_t : (G * J, B) array
        The pooled term n_T * log(var_T) of each step, a(t) of
        ``_pre_change_terms``.
    pre : (G * J, B, L - 1) array
        The pre-change term a(k) of each entry, a(t - 2), a(t - 3), ...;
        -inf where k < 0.
    rev : (G * J, B, L) complex array
        The values at times t, t - 1, ..., t - L + 1 of each step, newest
        first, as real parts, and their squares as imaginary parts.
    cvals : (B, L - 1) array
        The Bartlett factor C(k, t) of each entry; finite and positive
        where k < 0.
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
    # the sums of the newest n2 values of each window and of their squares:
    # one cumulative sum along the window axis. A complex addition is two
    # separate IEEE additions, so the real and imaginary parts are the two
    # real cumulative sums bit for bit, for the numpy calls of one
    n2 = np.arange(2, L + 1, dtype=float)
    sums = np.cumsum(rev, axis=2)[:, :, 1:]
    var_2 = _segment_variances(sums.real, sums.imag, n2)
    del sums
    # the two-point segment, each step's first cell, is cancellation-prone
    # from cumulative sums; its exact variance is ((a - b) / 2)^2
    var_2[:, :, 0] = 0.25 * np.square(rev.real[:, :, 0] - rev.real[:, :, 1])
    llr = np.subtract(log_t[:, :, None], pre)
    terms, low = _cell_terms(var_2, llr, n2, cvals, p0, var_floor)
    outside = np.arange(L - 1) >= counts[:, None] if counts[0] < L - 1 else None  # cells with k < 0
    if low is not None:
        if outside is not None:
            low[:, outside] = False
        clamped += low.reshape(G, J, B, L - 1).sum(axis=(1, 3))
    # each cell's J terms are summed in the order numpy sums a contiguous
    # row of J values, as a (cells, J) scan sums them, so the statistics
    # match it bit for bit
    lam = _row_sums(terms.reshape(G, J, B, L - 1))
    if outside is not None:
        lam[:, outside] = -np.inf
    # the largest n2 is the smallest k, which wins ties
    at = L - 2 - np.argmax(lam[:, :, ::-1], axis=2)
    return lam.reshape(G * B, L - 1)[np.arange(G * B), at.ravel()].reshape(G, B), at, clamped


def _set_sums(terms, sets):
    """Each cell's sum over its set's J terms, (cells, G * J) to (cells, G), as numpy sums a contiguous row of J values.

    From 8 streams on that is numpy's own sum of each row. Below 8 numpy
    adds a row left to right from 0, which a pass per stream does at a
    tenth to a quarter of the cost of numpy's sum along the short axis.
    """
    cells, J = terms.shape[0], terms.shape[1] // sets
    if J >= 8:
        return terms.reshape(-1, J).sum(axis=1).reshape(cells, sets)
    terms = terms.reshape(cells, sets, J)
    total = terms[:, :, 0] + 0.0  # which only turns -0.0 into 0.0
    for j in range(1, J):
        total += terms[:, :, j]
    return total


def _keep_best(best, at, lam, n2):
    """Fold the statistics ``lam`` of the segments of length n2 into the running maxima ``best``, in place.

    The segment lengths come in increasing order, so ``>=`` lets the
    longer of two equal statistics, the smaller k, take the maximum, as
    the tie rule asks; ``at`` records its n2. A NaN never takes it, which
    np.argmax would give it, but no NaN reaches a scan's statistics: the
    rows are checked finite and every variance is at least the floor.
    """
    take = lam >= best
    np.copyto(best, lam, where=take)
    np.copyto(at, n2, where=take)


def _sweep_cells(x, xx, a, t0, h_k, h, p0, var_floor, clamped, sets):
    """The windowed mixture-GLR scan of a block of B steps swept by segment length, for G sets of J streams.

    Every array is time-major, one row per time and one column per
    stream, set after set. The outer loop runs over the post-change length
    n2 = 2..L, and each pass takes the cells of that length of every step
    and stream of the block at once: each step's window sums grow by one
    value, S(t, n2) = S(t, n2 - 1) + x(t - n2 + 1), the same IEEE
    additions in the same newest-first order as a cumulative sum along the
    step's window, so every cell is that of ``_scan_cells`` bit for bit.
    The values and a(k) of a pass are plain slices, and a step takes part
    only from the first n2 whose candidate k = t - n2 is at least 0. Each
    cell's J terms are summed as numpy sums a contiguous row of J values,
    and ``_keep_best`` applies the tie rule per set.

    Parameters
    ----------
    x, xx : (B + e, G * J) arrays
        The values, and their squares, at times t0 - e..t0 + B - 1, e =
        min(L - 1, t0 - 1): every time a segment of the block reaches,
        none before time 1.
    a : (B + e + 1, G * J) array
        The pre-change term a(k) of k = t0 - e - 1..t0 + B - 1; a(t) is the
        pooled term of the step at time t.
    t0 : int
        The time of the block's first step, at least 2.
    h_k : (L - 1, B) array or view
        Row n2 - 2 holds h[m + t - n2] of each step, ``_h`` at
        the pre-change length of the candidate; the Bartlett factors C(t -
        n2, t) = 0.5 * ((h[m + t - n2] + h[n2]) - h[m + t]) are computed
        from it a few lengths at a time, so they take no more memory than
        the block's values.
    h : (h_n, h_t) pair of arrays
        h_n[a] = ``_h(a)`` for 2 <= a <= L, and h_t (B,) holds
        h[m + t] of each step, at its pooled length.
    clamped : (B, G) int array
        Each set's clamped pre-change and pooled variances of each step;
        the clamped post-change variances are added to it.

    Returns
    -------
    (stat, n2, clamped) : (B, G) arrays
        Per step and set, the largest corrected mixture statistic, the
        longest segment length n2 attaining it, and the number of clamped
        segment variances.
    """
    L, B = h_k.shape[0] + 1, h_k.shape[1]
    h_n, h_t = h
    e = x.shape[0] - B  # the rows before time t0
    J = x.shape[1] // sets
    chunk = x.shape[1]  # lengths whose factors are computed at once: a (chunk, B) block, as large as x
    sums, ssq = x[e:].copy(), xx[e:].copy()  # S(t, 1) = x(t)
    a_t = a[e + 1:]
    best = np.full((B, sets), -np.inf)
    at = np.zeros((B, sets), dtype=np.int64)
    for n2 in range(2, L + 1):
        i = max(0, n2 - t0)  # the first step with k >= 0
        lo, hi = i + e + 1 - n2, B + e + 1 - n2  # the rows of x(t - n2 + 1), and of a(t - n2)
        sums[i:] += x[lo:hi]
        ssq[i:] += xx[lo:hi]
        if n2 == 2:
            # the two-point segment's exact variance, as ``_scan_cells`` takes it
            var_2 = 0.25 * np.square(x[e + i:] - x[lo:hi])
        else:
            var_2 = _segment_variances(sums[i:], ssq[i:], float(n2))
        if (n2 - 2) % chunk == 0:
            h_kb = h_k[n2 - 2:n2 - 2 + chunk]
            cvals = 0.5 * ((h_kb + h_n[n2:n2 + h_kb.shape[0], None]) - h_t)
        terms, low = _cell_terms(var_2, np.subtract(a_t[i:], a[lo:hi]), float(n2),
                                 cvals[(n2 - 2) % chunk, i:, None], p0, var_floor)
        if low is not None:
            clamped[i:] += low.reshape(B - i, sets, J).sum(axis=2)
        _keep_best(best[i:], at[i:], _set_sums(terms, sets), n2)
    return best, at, clamped


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
    ``KAHAN_ROW_VALUES`` per row. A live monitor's blocks (27 rows of 6
    lanes at w = 200 and J = 3, or a swept 1024-row chunk of the
    ``monitor`` command) go lane by lane; a single row (``Monitor.step``),
    a 36-row block of 24 lanes and the wide stacks of calibration and
    simulated trials, whose rows hold hundreds of lanes, take the row loop.
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


def _newest_first(rows: np.ndarray, n: int, L: int) -> np.ndarray:
    """The first n windows of L columns of a C-contiguous (S, ...) array, newest first, as a (S, n, L) view.

    Window s holds columns s + L - 1, s + L - 2, ..., s. Built straight from
    the array's buffer: ``sliding_window_view`` costs about 11 us a call,
    a sizable share of a narrow block.
    """
    step = rows.strides[1]
    return np.ndarray((rows.shape[0], n, L), rows.dtype, rows, (L - 1) * step, (rows.strides[0], step, -step))


def _next_block(t0: int, T: int, n_streams: int, window: int, thresholded: bool) -> tuple[int, bool]:
    """End (exclusive) of the block of steps starting at t0, and whether it is swept by segment length.

    A block is swept (``_sweep_cells``) when each pass over one segment
    length holds at least SWEEP_VALUES values, steps x streams; each pass
    then costs less than its share of a rectangle. The swept block of a
    scan without a threshold holds up to SWEEP_MAX_VALUES values a pass,
    the whole stretch when it fits; with a threshold it is held to about
    SWEEP_CHUNK_VALUES a pass and to TRACE_BLOCK_STEPS steps, so a set
    that crosses early pays for few steps after its crossing, and a stacked
    scan drops the sets that crossed between blocks. A block with fewer
    values a pass is a rectangle of ``_block_end``'s size.
    """
    most = max(1, (SWEEP_CHUNK_VALUES if thresholded else SWEEP_MAX_VALUES) // n_streams)
    if thresholded:
        most = min(most, TRACE_BLOCK_STEPS, t0 - 1)
    # the rest of the stretch in equal blocks of at most ``most`` steps, so
    # that no short last block falls below the sweep
    left = T + 1 - t0
    steps = -(-left // -(-left // most))
    if steps * n_streams >= SWEEP_VALUES:
        return t0 + steps, True
    return _block_end(t0, T, n_streams, window, _block_cells(n_streams)), False


def stack_size(n_streams: int, window: int, steps: int, held: int) -> int:
    """How many sets of ``n_streams`` streams, each holding ``steps`` steps at a time, to handle as one stack.

    The one sizing rule of calibration batches and of simulated trial
    groups. A calibration replicate holds its whole stream at once; a
    trial group is drawn and scanned a stretch of steps at a time, and
    ``steps`` is its longest stretch. As many sets as fill one step of a
    rectangle block at its longest segment, taken as min(steps, w + 1);
    the block is taken as wide when 8 sets make it so, so sets of 8 or
    more streams fill the doubled budget. A stack that wide is swept
    (``_next_block``), and a wider one would not be cheaper a set: timed
    over 100 full-window steps, 16 and 32 sets of 20 streams took 1.18
    and 1.21 ms a set. And no more than fill STACK_BLOCKS blocks with
    what one set holds at its largest stage: ``held`` floats while its
    caller prepares it, or, while it is scanned, its projections, and the
    scan's copies of them and of their squares and the pre-change terms
    of their times (one float each), which reach w + 1 steps back.
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
    share m, the window and p0, and so the Bartlett factors, which the
    scan reads off the kernel's table (``h_table``). Each set's results
    are bit for bit those of a scan of it alone, and a stacked scan
    saves the numpy calls of G scans.

    Steps are processed in blocks (``_next_block``). A block whose every
    segment length holds SWEEP_VALUES values or more, steps x streams,
    is swept by segment length (``_sweep_cells``): without a threshold
    that is the whole stretch, up to SWEEP_MAX_VALUES values a pass; with
    one, blocks of about SWEEP_CHUNK_VALUES values a pass, and of no more
    steps than the trace has behind them, so a set that crosses early
    pays for few steps after its crossing. A narrower block is one
    rectangle of about TRACE_BLOCK_CELLS (t, n2, stream) cells, n2 =
    2..min(t1 - 1, window + 1) for its B steps (``_scan_cells``), whose
    cells with k < 0 in its early steps are masked; the sweep computes no
    such cell. Each block first adds its rows to the running totals
    through ``_kahan``, as ``advance_state`` does, and computes from them
    the pre-change term a(k) of each of its times once per stream
    (``_pre_change_terms``). The scan copies the whole stretch once,
    stream-major, each value and its square as one complex number; a
    rectangle reads its windows, and those of the a(k), as strided views
    of the copies, and a swept block takes time-major copies of its own
    values, squares and a(k), whose rows its passes read as plain slices.

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
    h = h_table(m + t_end)
    # h[m + k] for k = t_prev - w - 1..t_end, and hrev[t - t_prev, l] = h[m + t - 1 - l],
    # the h[m + k] of step t's cell n2 = l + 1; k < 0 reads h[2], which keeps
    # the factors of those cells finite and positive
    hrev = sliding_window_view(h[np.maximum(np.arange(m + t_prev - cap, m + t_end + 1), 2)], cap)[:, ::-1]

    # The values and their squares, stream-major: both[i, s] holds stream
    # i (set after set, J streams each) at time first + s as its real part
    # and the value's square as its imaginary part. The columns reach w + 1
    # times back from the first step, zero columns standing for times
    # before 1, which only a rectangle's cells with k < 0 read, and on to the
    # stretch's last time. Next to them, pre[i, s] holds stream i's
    # pre-change term a(k) of k = first - 1 + s, -inf where k < 0, and
    # lows[g, s] set g's count of streams whose var_1 is clamped at that k;
    # each block fills in those of its own times. When sets leave a stacked
    # scan, the columns the others still read are copied apart
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

    def windows(both, pre):
        """Every step's window of ``both`` and of ``pre``, newest first, as views: (values, a(k)).

        Window s of the values holds columns s + w, ..., s, and window s of
        the a(k) columns s + w - 1, ..., s: those of the step at time first
        + s + w.
        """
        n = both.shape[1] - window
        return _newest_first(both, n, cap), _newest_first(pre, n, window)

    rev, prev = windows(both, pre)

    def add_rows(t0, t1):
        """Add the rows of times t0..t1 - 1 to the running totals and fill in their a(k).

        Returns the new (total, comp) and the rows, (n, 2, G, J): a
        contiguous copy, on which each of the running totals' small per-row
        numpy calls costs less than on a strided view.
        """
        n = t1 - t0
        rows = np.ascontiguousarray(both[:, t0 - first:t1 - first].view(float).reshape(-1, n, 2).transpose(1, 2, 0))
        rows = rows.reshape(n, 2, -1, J)
        run = np.empty(rows.shape)
        totals = _kahan(total, comp, rows, run)
        a, low = _pre_change_terms(train, m, t0, run, var_floor)
        pre[:, t0 - first + 1:t1 - first + 1] = a.reshape(n, -1).T
        lows[:, t0 - first + 1:t1 - first + 1] = low.T
        hist.append((t0, run))
        return *totals, rows

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
        t1, sweep = _next_block(t0, t_end, S, window, threshold is not None)
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
        # C(t - n2, t) of each step and n2 = 2..L, h[m + k] of k = t - n2
        h_k = hrev[t0 - t_prev:t1 - t_prev, 1:L]
        r = t0 - L + 1 - first  # the column of time t0 - L + 1, and of a(t0 - L)
        if sweep:
            # time-major copies of the block's values, squares and a(k), from
            # time 1 on: the sweep reads no cell with k < 0
            c = max(r, 1 - first)
            x, xx = (np.ascontiguousarray(part[:, c:t1 - first].T) for part in (both.real, both.imag))
            block_stat, n2, block_clamped = _sweep_cells(
                x, xx, np.ascontiguousarray(pre[:, c:c0 + B].T), t0, h_k.T, (h, h[m + t0:m + t1]), p0,
                var_floor, base.T, alive.size,
            )
            block_stat, block_k, block_clamped = block_stat.T, ts - n2.T, block_clamped.T
        else:
            s0 = t0 - window - first  # the window of step t0
            block_stat, best, block_clamped = _scan_cells(
                pre[:, c0:c0 + B],
                prev[:, s0:s0 + B, :L - 1],  # a(t - 2), a(t - 3), ... of each step
                rev[:, s0:s0 + B, :L],
                0.5 * ((h_k + h[2:L + 1]) - h[m + t0:m + t1, None]),
                np.minimum(ts, cap) - 1,  # admissible cells, 2 <= n2 <= min(t, w + 1)
                p0,
                var_floor,
                base,
                alive.size,
            )
            block_k = ts - 2 - best
        into = (slice(None), out) if alive.size == G else (alive, out)
        stat[into] = block_stat
        argmax_k[into] = block_k
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
        rev, prev = windows(both, pre)
    return results(t_end, total, comp)
