"""Pure-numpy windowed mixture-GLR scans.

``_scan_cells`` scans the candidate change points of a block of steps;
it is the only place that computes the segment variances, clamps, llr,
Bartlett division, mixture sum and tie rule. ``scan_step`` calls it for
one monitoring step. ``scan_trace`` calls it block by block over a
stretch of trace and resumes from the ``ScanState`` an earlier call
returned.

The cells are laid out stream-major, as (J, cells) arrays, from the
window buffer to the sum over streams. A tailored monitor watches few
streams (two or three is usual), so a (cells, J) layout would run every
elementwise pass as numpy inner loops only J long; stream-major, they
run over all the cells of a block. Each cell's J mixture terms are then
summed in the order numpy sums a contiguous row of J values, which keeps
the statistics bit for bit those of a (cells, J) scan.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# (t, n2, J) cells per block of ``scan_trace``. A block holds about a
# dozen float64 temporaries of this size, so the budget bounds the scan's
# extra memory; fewer, larger blocks save numpy calls.
TRACE_BLOCK_CELLS = 16384
# Steps per block at most. Narrow, short-window traces fit hundreds of
# steps in the cell budget; a scan that stops at a threshold would finish
# them all after the crossing.
TRACE_BLOCK_STEPS = 64


def mixture_terms(x: np.ndarray, p0: float) -> np.ndarray:
    """log(1 - p0 + p0 * exp(x)) evaluated without overflow.

    For x > 0 the identity x + log(p0 + (1 - p0) * exp(-x)) is used, so
    p0 = 1 reduces to x exactly. That form is evaluated on the whole
    array, which saves gathering the positive entries; statistics are
    mostly positive, so only the rare x <= 0 entries are gathered and
    given log1p(p0 * expm1(x)) instead.
    """
    x = np.asarray(x, dtype=float)
    if p0 == 1.0:
        out = x.copy(order="K")
    else:
        out = np.empty_like(x)  # an array even for 0-d x, so it takes the patch below
        # exp(-x) overflows where x is very negative; those entries are replaced below
        with np.errstate(over="ignore", invalid="ignore"):
            np.add(x, np.log(p0 + (1.0 - p0) * np.exp(-x)), out=out)
    neg = ~(x > 0.0)
    if neg.any():
        out[neg] = np.log1p(p0 * np.expm1(x[neg]))
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
    return float(stat[0]), t - 2 - int(best[0]), int(clamped[0])


def _cell_lengths(counts: np.ndarray):
    """Where each step's cells start, and the post-change segment length n2 of every cell.

    Step b has counts[b] admissible cells, n2 = 2..counts[b] + 1; the
    cells of a block are listed step after step.
    """
    starts = np.cumsum(counts) - counts
    return starts, np.arange(2, counts.sum() + 2) - np.repeat(starts, counts)


def _scan_cells(tot, nT, rev_z, rev_sq, counts, cvals, p0, var_floor):
    """The windowed mixture-GLR scan of a block of B steps.

    Only the admissible cells are evaluated, listed step after step as n
    cells. Every array is stream-major, (J, cells): monitors watch a
    handful of streams, so a (cells, J) layout would give each of the
    scan's elementwise passes numpy inner loops only J long. Per-step
    totals reach the cells of their step through ``np.repeat``.

    Parameters
    ----------
    tot : (2, J, B) array
        Training plus running totals up to each step, of the values (row
        0) and of their squares (row 1).
    nT : (B,) array
        m + t of each step, as floats.
    rev_z, rev_sq : (J, B, L) arrays
        The values at times t, t - 1, ..., t - L + 1 of each step, newest
        first, and their squares.
    counts : (B,) int array
        The admissible cells of each step, the post-change segments of
        length n2 = 2..counts[b] + 1; at least 1, at most L - 1.
    cvals : (n,) array
        The Bartlett factor C(t - n2, t) of every admissible cell, in the
        order of ``_cell_lengths``.

    Returns
    -------
    (stat, best, clamped) : (B,) arrays
        Per step, the largest corrected mixture statistic, the index
        i = n2 - 2 of the longest segment (smallest k = t - 2 - i)
        attaining it, and the number of clamped segment variances.
    """
    J, B, L = rev_z.shape
    tot_sum, tot_ssq = tot
    var_t = (tot_ssq - tot_sum * tot_sum / nT) / nT
    clamped = (var_t < var_floor).sum(axis=0)
    log_t = nT * np.log(np.maximum(var_t, var_floor))

    starts, lengths = _cell_lengths(counts)
    # the sums of the newest n2 values of each window and of their squares:
    # cumulative sums along the window axis, where cell (b, n2) sits at
    # b * L + n2 - 1, gathered by np.take. Values and squares go one at a
    # time, so each temporary stays within the block budget, small enough
    # for malloc to reuse; at twice that size malloc maps it afresh for
    # every block, and the page faults cost more than the layout saves
    cells = np.repeat(np.arange(B) * L - 1, counts) + lengths
    sum2, ssq2 = (np.take(np.cumsum(r, axis=2).reshape(J, B * L), cells, axis=1) for r in (rev_z, rev_sq))
    n2 = lengths.astype(float)
    n1 = np.repeat(nT, counts) - n2
    # the segment variances (ssq - sum * sum / n) / n, computed in place to
    # keep the block's memory small
    sum1 = np.repeat(tot_sum, counts, axis=1)
    sum1 -= sum2
    var_1 = np.repeat(tot_ssq, counts, axis=1)
    var_1 -= ssq2  # ssq1
    sum1 *= sum1
    sum1 /= n1
    var_1 -= sum1
    var_1 /= n1
    var_2 = ssq2
    np.multiply(sum2, sum2, out=sum1)
    sum1 /= n2
    var_2 -= sum1
    var_2 /= n2
    # the two-point segment, each step's first cell, is cancellation-prone
    # in prefix form; its exact variance is ((a - b) / 2)^2
    var_2[:, starts] = 0.25 * np.square(rev_z[:, :, 0] - rev_z[:, :, 1])
    for var in (var_1, var_2):
        low = var < var_floor
        if low.any():
            clamped += np.add.reduceat(low.sum(axis=0), starts)
        np.maximum(var, var_floor, out=var)
    np.log(var_1, out=var_1)
    var_1 *= n1
    np.log(var_2, out=var_2)
    var_2 *= n2
    llr = np.repeat(log_t, counts, axis=1)
    llr -= var_1
    llr -= var_2
    llr *= 0.5  # 0.5 * (nT * log(var_t) - n1 * log(var_1) - n2 * log(var_2))
    llr /= cvals
    terms = mixture_terms(llr, p0)
    # each cell's J terms are summed in the order numpy sums a contiguous
    # row of J values, as a (cells, J) scan sums them, so the statistics
    # match it bit for bit. Below 8 terms that order is left to right, which
    # adding whole rows gives without the row sum's overhead per cell (the
    # row sum alone cost about 9% of the benchmark's stream and calibrate
    # throughput, at J = 3 and 2); from 8 on numpy sums pairwise, which only
    # the row sum itself reproduces
    if J < 8:
        cell = terms.sum(axis=0)
    else:
        cell = np.ascontiguousarray(terms.T).sum(axis=1)
    lam = np.full((B, L - 1), -np.inf)
    lam[np.arange(L - 1) < counts[:, None]] = cell
    # the largest n2 is the smallest k, which wins ties
    best = L - 2 - np.argmax(lam[:, ::-1], axis=1)
    return lam[np.arange(B), best], best, clamped


class ScanState(NamedTuple):
    """Where a trace scan stopped, so the next call can go on from there.

    ``total`` holds the running sums over monitoring times 1..t of the
    values (row 0) and of their squares (row 1), and ``comp`` their Kahan
    compensations, as ``StreamStats.append`` keeps them; ``tail`` holds
    the values at times t - L + 1..t, oldest first, L = min(t, w + 1).
    """

    total: np.ndarray
    comp: np.ndarray
    tail: np.ndarray
    t: int

    @classmethod
    def fresh(cls, n_streams: int) -> "ScanState":
        """The state before monitoring time 1."""
        return cls(np.zeros((2, n_streams)), np.zeros((2, n_streams)), np.zeros((0, n_streams)), 0)


def _kahan(total, comp, v, run=None):
    """Add the rows of v, (n, 2, J), to the running totals with ``StreamStats.append``'s Kahan steps.

    Returns the new (total, comp); ``run[i]``, when given, receives the
    totals after row i.
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
    """The state after the rows of ``z``, without scanning them."""
    z = np.ascontiguousarray(z, dtype=float)
    total, comp = _kahan(state.total, state.comp, np.stack([z, z * z], axis=1))
    tail = np.concatenate([state.tail, z])[-(window + 1):]
    return ScanState(total, comp, tail, state.t + z.shape[0])


def _block_end(t0: int, T: int, J: int, window: int) -> int:
    """End (exclusive) of the block of steps starting at t0.

    The block grows while it holds fewer than TRACE_BLOCK_STEPS steps and
    its (steps, longest segment - 1, J) rectangle stays within
    TRACE_BLOCK_CELLS; it holds at least one step.
    """
    cap = window + 1
    t1 = t0 + 1
    while (
        t1 <= T
        and t1 - t0 < TRACE_BLOCK_STEPS
        and (t1 + 1 - t0) * (min(t1, cap) - 1) * J <= TRACE_BLOCK_CELLS
    ):
        t1 += 1
    return t1


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

    Steps are processed in blocks of about TRACE_BLOCK_CELLS (t, n2, J)
    cells, where n2 = t - k is the post-change segment length. Each block
    goes through the cell scan ``scan_step`` uses, restricted to the
    admissible cells (2 <= n2 <= min(t, window + 1)); the running totals
    use ``StreamStats.append``'s Kahan steps.

    Parameters
    ----------
    z : (T, J) array
        Values at the next T monitoring times.
    train_sum, train_sumsq, m, p0, var_floor
        As for ``scan_step``.
    window : int
        Window length w; segments are at most w + 1 long.
    h : array
        h[a] = ``mixmonitor._h(a)`` for 2 <= a <= m + state.t + T.
    threshold : float, optional
        Stop after the first block in which a statistic reaches it.
    state : ScanState, optional
        Where an earlier scan of the same trace stopped; it is not changed.

    Returns
    -------
    (stat, argmax_k, clamped, state)
        For each scanned step, the statistic, the smallest maximizing k
        and the number of clamped segment variances that ``scan_step``
        returns at that time (a time with no candidate, t = 1, reports
        -inf, -1 and 0), and the state after the last scanned step. All
        T steps are scanned unless the scan stopped early.
    """
    z = np.ascontiguousarray(z, dtype=float)
    T, J = z.shape
    if state is None:
        state = ScanState.fresh(J)
    t_prev = state.t
    t_end = t_prev + T
    stat = np.full(T, -np.inf)
    argmax_k = np.full(T, -1, dtype=np.int64)
    clamped = np.zeros(T, dtype=np.int64)
    cap = window + 1
    train = np.stack([train_sum, train_sumsq])

    # The values and their squares from at least w + 1 times back. Zero rows
    # stand for times before 1, which only inadmissible cells reach.
    pad = max(0, cap - state.tail.shape[0])
    vals = np.concatenate([np.zeros((pad, J)), state.tail, z])
    first = t_end - vals.shape[0] + 1  # time of vals[0]
    # The running totals add one time at a time, so they read time-major
    # rows, contiguous per time; the windows read a stream-major copy.
    # rev[:, :, s, i] holds the values and squares at time first + s + w - i,
    # a strided view along each stream's row, so no window is copied
    rows = np.stack([vals, vals * vals], axis=1)
    both = np.ascontiguousarray(rows.transpose(1, 2, 0))
    rev = sliding_window_view(both, cap, axis=2)[..., ::-1]

    def state_at(t, total, comp):
        return ScanState(total, comp, vals[t - first + 1 - min(t, cap):t - first + 1], t)

    total, comp = state.total, state.comp
    if t_prev == 0 and T:  # time 1 has no candidate; it only enters the totals
        total, comp = _kahan(total, comp, rows[1 - first:2 - first])
    t0 = max(2, t_prev + 1)
    while t0 <= t_end:
        t1 = _block_end(t0, t_end, J, window)
        B = t1 - t0
        run = np.empty((B, 2, J))
        total, comp = _kahan(total, comp, rows[t0 - first:t1 - first], run)
        ts = np.arange(t0, t1)
        out = slice(t0 - t_prev - 1, t1 - t_prev - 1)
        L = min(t1 - 1, cap)  # longest admissible segment in the block
        counts = np.minimum(ts, cap) - 1  # admissible cells, 2 <= n2 <= min(t, w + 1)
        _, n2 = _cell_lengths(counts)
        cvals = 0.5 * (h[np.repeat(m + ts, counts) - n2] + h[n2] - np.repeat(h[m + ts], counts))
        block_stat, best, clamped[out] = _scan_cells(
            (train + run).transpose(1, 2, 0),
            (m + ts).astype(float),
            *rev[:, :, t0 - window - first:t1 - window - first, :L],
            counts,
            cvals,
            p0,
            var_floor,
        )
        stat[out] = block_stat
        argmax_k[out] = ts - 2 - best
        if threshold is not None and np.any(block_stat >= threshold):
            n = t1 - 1 - t_prev
            return stat[:n], argmax_k[:n], clamped[:n], state_at(t1 - 1, total, comp)
        t0 = t1
    return stat, argmax_k, clamped, state_at(t_end, total, comp)
