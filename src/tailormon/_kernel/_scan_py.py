"""Pure-numpy windowed mixture-GLR scans.

``_scan_cells`` scans the candidate change points of a block of steps;
it is the only place that computes the segment variances, clamps, llr,
Bartlett division, mixture sum and tie rule. ``scan_step`` calls it for
one monitoring step. ``scan_trace`` calls it block by block over a
stretch of trace, of one monitor's streams or of several monitors' side
by side, and resumes from the ``ScanState`` an earlier call returned.
``ScanState`` is every monitor's running state, and ``_kahan`` is the
one place its totals are added up, whether ``advance_state`` adds a row
for ``Monitor.step`` or ``scan_trace`` adds a block.

The cells are laid out stream-major, as (J, cells) arrays, from the
window buffer to the sum over streams. A tailored monitor watches few
streams (two or three is usual), so a (cells, J) layout would run every
elementwise pass as numpy inner loops only J long; stream-major, they
run over all the cells of a block. Each cell's J mixture terms are then
summed in the order numpy sums a contiguous row of J values, which keeps
the statistics bit for bit those of a (cells, J) scan. A stacked trace
scan lays G sets of J streams out as (G * J, cells) and keeps the sum
over streams, the clamp count and the tie rule per set.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# (t, n2, J) cells per block of ``scan_trace``. A block holds about a
# dozen float64 temporaries of this size, so the budget bounds the scan's
# extra memory; fewer, larger blocks save numpy calls. A block of
# WIDE_STREAMS or more streams (a stack of sets) takes twice as many: one
# full-window step of 8 sets of 20 streams is 32160 cells.
TRACE_BLOCK_CELLS = 16384
WIDE_STREAMS = 64
# Steps per block at most. Narrow, short-window traces fit hundreds of
# steps in the cell budget; a scan that stops at a threshold would finish
# them all after the crossing.
TRACE_BLOCK_STEPS = 64
# A stacked thresholded scan's first block holds at most this many cells,
# and each later one twice as many as the one before, up to the budget, so
# sets that cross early waste few cells past their crossing. One monitor's
# scan keeps whole blocks: below about J = 8 a block's own numpy calls
# cost about what a half block of cells does (0.3-0.5 ms), so for it a
# smaller first block costs more on a stream that does not alarm early
# than it saves on one that does.
TRACE_BLOCK_FIRST = TRACE_BLOCK_CELLS // 2
# Steps of the stretch that a thresholded scan copies ahead of its blocks.
TRACE_AHEAD = 4 * TRACE_BLOCK_STEPS
# A stack of sets (calibration replicates, simulated trials) holds no more
# than fill this many blocks at any one stage (``stack_size``).
STACK_BLOCKS = 16


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
    neg = ~(x > 0.0)
    if neg.any():
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

    Returns
    -------
    (stat, argmax_k, clamped) : (float, int, int)
        Maximum corrected mixture statistic over candidates, the smallest
        k attaining it, and the number of clamped segment variances.
    """
    L = window_vals.shape[0]
    rev = window_vals.T[:, None, ::-1]  # (J, 1, L), newest first
    stat, best, clamped = _scan_cells(
        np.stack([train_sum + run_sum, train_sumsq + run_sumsq])[:, :, None],
        np.array([float(m + t)]),
        rev,
        rev * rev,
        np.array([L - 1]),
        cvals[::-1],
        p0,
        var_floor,
    )
    return float(stat[0, 0]), t - 2 - int(best[0, 0]), int(clamped[0, 0])


def _cell_lengths(counts: np.ndarray):
    """Where each step's cells start, and the post-change segment length n2 of every cell.

    Step b has counts[b] admissible cells, n2 = 2..counts[b] + 1; the
    cells of a block are listed step after step.
    """
    starts = np.cumsum(counts) - counts
    return starts, np.arange(2, counts.sum() + 2) - np.repeat(starts, counts)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each cell's sum over its J terms, (G, J, cells) to (G, cells), as numpy sums a contiguous row of J values.

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
    """numpy's pairwise sum of 8 or more terms per cell, along axis 1 of (G, J, cells)."""
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


def _scan_cells(tot, nT, rev_z, rev_sq, counts, cvals, p0, var_floor, sets=1):
    """The windowed mixture-GLR scan of a block of B steps, for G sets of J streams.

    Only the admissible cells are evaluated, listed step after step as n
    cells. Every array is stream-major, (G * J, cells): monitors watch a
    handful of streams, so a (cells, J) layout would give each of the
    scan's elementwise passes numpy inner loops only J long. Per-step
    totals reach the cells of their step by broadcasting when every step
    has all its cells, and through ``np.repeat`` otherwise. A set is
    one monitor's streams; every pass but three is elementwise per
    stream, and those three (the clamp count, the mixture sum over the J
    streams and the tie rule) run per set, so each set's results are
    those of a scan of it alone, bit for bit. ``scan_step`` passes one
    set; ``scan_trace`` passes as many as its trace holds.

    Parameters
    ----------
    tot : (2, G * J, B) array
        Training plus running totals up to each step, of the values (row
        0) and of their squares (row 1).
    nT : (B,) array
        m + t of each step, as floats.
    rev_z, rev_sq : (G * J, B, L) arrays
        The values at times t, t - 1, ..., t - L + 1 of each step, newest
        first, and their squares.
    counts : (B,) int array
        The admissible cells of each step, the post-change segments of
        length n2 = 2..counts[b] + 1; at least 1, at most L - 1.
    cvals : (n,) array
        The Bartlett factor C(t - n2, t) of every admissible cell, in the
        order of ``_cell_lengths``.
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
    S, B, L = rev_z.shape
    J = S // G
    tot_sum, tot_ssq = tot
    var_t = (tot_ssq - tot_sum * tot_sum / nT) / nT
    clamped = (var_t < var_floor).reshape(G, J, B).sum(axis=1)
    log_t = nT * np.log(np.maximum(var_t, var_floor))

    starts, lengths = _cell_lengths(counts)
    # the sums of the newest n2 values of each window and of their squares:
    # cumulative sums along the window axis, in which cell (b, n2) sits at
    # (b, n2 - 1). When every step of the block has all L - 1 cells, as in
    # a full window or a block of one step, the cells are the cumulative
    # sums from n2 = 2 on, and the per-step totals and lengths reach them
    # by broadcasting, as (S, B, L - 1) arrays; otherwise np.take gathers
    # them, and np.repeat spreads the per-step values over the cells. Each
    # result is the same either way, operation for operation. Values and
    # squares go one at a time, so each temporary stays within the block
    # budget, small enough for malloc to reuse
    full = counts.size * (L - 1) == lengths.size
    if full:
        sum2 = np.cumsum(rev_z, axis=2)[:, :, 1:]
        ssq2 = np.cumsum(rev_sq, axis=2)[:, :, 1:]
        n2 = lengths.astype(float).reshape(B, L - 1)
        n1 = nT[:, None] - n2
        sum1 = tot_sum[:, :, None] - sum2
        var_1 = tot_ssq[:, :, None] - ssq2  # ssq1
    else:
        cells = np.repeat(np.arange(B) * L - 1, counts) + lengths
        sum2 = np.take(np.cumsum(rev_z, axis=2).reshape(S, B * L), cells, axis=1)
        ssq2 = np.take(np.cumsum(rev_sq, axis=2).reshape(S, B * L), cells, axis=1)
        n2 = lengths.astype(float)
        n1 = np.repeat(nT, counts) - n2
        sum1 = np.repeat(tot_sum, counts, axis=1)
        sum1 -= sum2
        var_1 = np.repeat(tot_ssq, counts, axis=1)
        var_1 -= ssq2  # ssq1
    # the segment variances (ssq - sum * sum / n) / n, computed in place to
    # keep the block's memory small
    sum1 *= sum1
    sum1 /= n1
    var_1 -= sum1
    var_1 /= n1
    var_2 = np.multiply(sum2, sum2, out=sum1)
    var_2 /= n2
    np.subtract(ssq2, var_2, out=var_2)
    var_2 /= n2
    del sum2, ssq2
    if full:
        var_1, var_2, n1, n2 = var_1.reshape(S, -1), var_2.reshape(S, -1), n1.ravel(), n2.ravel()
    # the two-point segment, each step's first cell, is cancellation-prone
    # in prefix form; its exact variance is ((a - b) / 2)^2
    var_2[:, starts] = 0.25 * np.square(rev_z[:, :, 0] - rev_z[:, :, 1])
    for var in (var_1, var_2):
        low = var < var_floor
        if low.any():
            clamped += np.add.reduceat(low.reshape(G, J, -1).sum(axis=1), starts, axis=1)
            # with no entry below the floor the maximum changes no bit, NaN included
            np.maximum(var, var_floor, out=var)
    np.log(var_1, out=var_1)
    var_1 *= n1
    np.log(var_2, out=var_2)
    var_2 *= n2
    if full:
        llr = var_1
        np.subtract(log_t[:, :, None], llr.reshape(S, B, L - 1), out=llr.reshape(S, B, L - 1))
    else:
        llr = np.repeat(log_t, counts, axis=1)
        llr -= var_1
    llr -= var_2
    llr *= 0.5  # 0.5 * (nT * log(var_t) - n1 * log(var_1) - n2 * log(var_2))
    llr /= cvals
    terms = _mixture_terms(llr, p0, llr if p0 == 1.0 else var_2).reshape(G, J, -1)
    # each cell's J terms are summed in the order numpy sums a contiguous
    # row of J values, as a (cells, J) scan sums them, so the statistics
    # match it bit for bit
    cell = _row_sums(terms)
    # every set's steps, set after set, as rows of L - 1 cells
    if cell.shape[1] == B * (L - 1):  # every step has all L - 1 cells, as in a full window
        lam = cell.reshape(G * B, L - 1)
    else:
        lam = np.full((G * B, L - 1), -np.inf)
        lam[np.tile(np.arange(L - 1) < counts[:, None], (G, 1))] = cell.ravel()
    # the largest n2 is the smallest k, which wins ties
    best = L - 2 - np.argmax(lam[:, ::-1], axis=1)
    return lam[np.arange(G * B), best].reshape(G, B), best.reshape(G, B), clamped


class ScanState(NamedTuple):
    """The running state of a monitor's scan: where a trace scan stopped, or where ``Monitor.step`` stands.

    ``total`` holds the running sums over monitoring times 1..t of the
    values (row 0) and of their squares (row 1), and ``comp`` their Kahan
    compensations; ``tail`` holds the values at times t - L + 1..t, oldest
    first, L = min(t, w + 1). No function changes a state's arrays in
    place: each returns a new state. A monitor's state holds J streams,
    total (2, J) and tail (L, J); a stacked trace scan's holds G sets of
    them, total (2, G, J) and tail (L, G, J).
    """

    total: np.ndarray
    comp: np.ndarray
    tail: np.ndarray
    t: int

    @classmethod
    def fresh(cls, *streams: int) -> "ScanState":
        """The state before monitoring time 1 of J streams, ``fresh(J)``, or of G sets of them, ``fresh(G, J)``."""
        return cls(np.zeros((2, *streams)), np.zeros((2, *streams)), np.zeros((0, *streams)), 0)


def _kahan(total, comp, v, run=None):
    """Add the rows of v, (n, 2, J) or (n, 2, G, J), to the running totals with Kahan's compensated steps.

    Returns the new (total, comp); ``run[i]``, when given, receives the
    totals after row i. Every running total of the library goes through
    here, one time after another, so they agree bit for bit however the
    times are grouped.
    """
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

    The new tail is a copy of at most w + 1 rows, so it keeps neither the
    old tail nor ``z`` alive.
    """
    n, J = z.shape
    # (n, 2, J) rows of values and squares; np.stack costs twice as much per call
    total, comp = _kahan(state.total, state.comp, np.concatenate([z, z * z], axis=1).reshape(n, 2, J))
    cap = window + 1
    tail = np.concatenate([state.tail[max(0, state.tail.shape[0] + n - cap):], z[-cap:]])
    return ScanState(total, comp, tail, state.t + n)


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
    t1 = t0 + 1
    while t1 <= T and t1 - t0 < TRACE_BLOCK_STEPS and (t1 + 1 - t0) * (min(t1, cap) - 1) * n_streams <= budget:
        t1 += 1
    return t1


def stack_size(n_streams: int, window: int, steps: int, held: int) -> int:
    """How many sets of ``n_streams`` streams, each scanned over ``steps`` steps, to handle as one stack.

    The one sizing rule of calibration batches and of simulated trial
    groups. As many sets as fill one step of a scan block at its longest
    segment, so every block holds a step of each of them; the block is
    taken as wide when 8 sets make it so, so sets of 8 or more streams
    fill the doubled budget. And no more than fill STACK_BLOCKS blocks
    with what one set holds at its largest stage: ``held`` floats while
    its caller prepares it, or, while it is scanned, its projections and
    the scan's stream-major copy of them and their squares, which hold its
    rows from w + 1 steps back.
    """
    budget = _block_cells(8 * n_streams)
    scan = budget // (n_streams * min(steps, window + 1))
    scanned = (3 * steps + 2 * (window + 1)) * n_streams
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
    Each block goes through the cell scan ``scan_step`` uses, restricted
    to the admissible cells (2 <= n2 <= min(t, window + 1)); the running
    totals go through ``_kahan``, as ``advance_state``'s do. A stacked
    scan with a threshold starts with blocks of TRACE_BLOCK_FIRST cells and
    doubles them, so little is scanned past early crossings.

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
        its crossing; a stacked scan's end at the last set's crossing, or
        at T if a set never crossed, and hold -inf, -1 and 0 after each
        set's own crossing. A stacked scan with a threshold returns no
        state (None), since its sets stop at different times. The state's
        tail is a view into the scan's copy of the stretch; copy it to
        keep it without keeping the copy.
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

    # The values and their squares, stream-major: both[0, i, s] holds
    # stream i (set after set, J streams each) at time first + s, and
    # both[1] its square. The columns reach w + 1 times back from the first
    # step, zero columns standing for times before 1, which only
    # inadmissible cells reach, and on to time ``filled``. A thresholded
    # scan copies TRACE_AHEAD steps of the stretch at a time, since its sets
    # may cross long before the end, and copies again what it still needs
    # when a block runs past them or a set leaves the scan
    zs = z.reshape(T, G, J)
    held = state.tail.shape[0]
    pad = max(0, cap - held)
    first = t_prev - held - pad + 1
    filled = t_prev + (T if threshold is None else min(T, TRACE_AHEAD))
    both = np.empty((2, G * J, filled - first + 1))
    both[0, :, :pad] = 0.0
    both[0, :, pad:pad + held] = state.tail.reshape(held, G * J).T
    both[0, :, pad + held:] = zs[:filled - t_prev].reshape(-1, G * J).T
    np.multiply(both[0], both[0], out=both[1])

    def recopy(keep, since, upto):
        """``both`` from time ``since`` on for the sets ``keep`` picks, and rows up to ``upto`` of those in ``alive``."""
        kept = both.reshape(2, -1, J, both.shape[2])[:, keep, :, since - first:]
        n_kept, S = kept.shape[3], kept.shape[1] * J
        out = np.empty((2, S, n_kept + upto - filled))
        out[:, :, :n_kept] = kept.reshape(2, S, n_kept)
        new = out[:, :, n_kept:]
        new[0] = zs[filled - t_prev:upto - t_prev, alive].reshape(upto - filled, S).T
        np.multiply(new[0], new[0], out=new[1])
        return out

    def views(both):
        """The windows and the running totals' rows of ``both``, as views.

        rev[:, i, s, l] holds the values and squares of stream i at time
        first + s + w - l, strided along each stream's row, so no window
        is copied. rows[s] holds the values and squares of every stream at
        time first + s, (2, G, J), the rows the running totals add one
        time at a time.
        """
        rev = sliding_window_view(both, cap, axis=2)[..., ::-1]
        return rev, np.moveaxis(both.reshape(2, -1, J, both.shape[2]), 3, 0)

    rev, rows = views(both)

    def results(t, total, comp):
        n = t - t_prev
        L = min(t, cap)
        tail = both[0, :, t - first + 1 - L:t - first + 1].T.reshape(L, *streams)
        state = ScanState(total.reshape(2, *streams), comp.reshape(2, *streams), tail, t)
        return *(a[:, :n].reshape(*sets, n) for a in (stat, argmax_k, clamped)), state

    if t_prev == 0 and T:  # time 1 has no candidate; it only enters the totals
        total, comp = _kahan(total, comp, rows[1 - first:2 - first])
    alive = np.arange(G)  # the sets still scanned, in the order of the arrays above
    ramp = TRACE_BLOCK_FIRST  # the cells of the next thresholded block
    t0 = max(2, t_prev + 1)
    while t0 <= t_end:
        S = alive.size * J
        budget = _block_cells(S)
        if threshold is not None and sets:
            budget, ramp = min(budget, ramp), 2 * ramp
        t1 = _block_end(t0, t_end, S, window, budget)
        if t1 - 1 > filled:
            both = recopy(slice(None), t0 - window, min(t_end, t1 - 1 + TRACE_AHEAD))
            first, filled = t0 - window, min(t_end, t1 - 1 + TRACE_AHEAD)
            rev, rows = views(both)
        B = t1 - t0
        run = np.empty((B, 2, alive.size, J))
        start = total, comp
        # a contiguous copy of the block's rows: each of the running totals'
        # small per-row numpy calls costs less on it than on the strided view
        block_rows = np.ascontiguousarray(rows[t0 - first:t1 - first])
        total, comp = _kahan(total, comp, block_rows, run)
        ts = np.arange(t0, t1)
        out = slice(t0 - t_prev - 1, t1 - t_prev - 1)
        L = min(t1 - 1, cap)  # longest admissible segment in the block
        counts = np.minimum(ts, cap) - 1  # admissible cells, 2 <= n2 <= min(t, w + 1)
        _, n2 = _cell_lengths(counts)
        cvals = 0.5 * (h[np.repeat(m + ts, counts) - n2] + h[n2] - np.repeat(h[m + ts], counts))
        block_stat, best, block_clamped = _scan_cells(
            (train + run).reshape(B, 2, S).transpose(1, 2, 0),
            (m + ts).astype(float),
            *rev[:, :, t0 - window - first:t1 - window - first, :L],
            counts,
            cvals,
            p0,
            var_floor,
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
        if t0 <= t_end:
            # and leaves the later blocks: the others keep their columns from
            # the first time a later window reads, at least up to the next step
            alive = alive[keep]
            upto = max(filled, min(t_end, t0 - 1 + TRACE_AHEAD))
            both = recopy(keep, t0 - window, upto)
            first, filled = t0 - window, upto
            rev, rows = views(both)
            total, comp, train = total[:, keep], comp[:, keep], train[:, keep]
    if threshold is not None and sets:
        return *(a.reshape(*sets, T) for a in (stat, argmax_k, clamped)), None
    return results(t_end, total, comp)
