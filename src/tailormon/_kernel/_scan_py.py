"""Pure-numpy windowed mixture-GLR scans.

``scan_step`` scans one monitoring step and has the same contract as the
compiled kernel in ``_scan_cy.pyx``; see ``tailormon._kernel`` for how
one of the two is selected at import. ``scan_trace`` scans many steps of
a trace at once, with ``scan_step``'s floating-point operations, and
resumes from the ``ScanState`` an earlier call returned.
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
    p0 = 1 reduces to x exactly. Each form is evaluated only where it
    applies; statistics are mostly positive, so the x <= 0 form is rare.
    """
    x = np.asarray(x, dtype=float)
    pos = x > 0.0
    if p0 == 1.0:
        out = x.copy(order="K")
    else:
        out = np.empty_like(x)
        xp = x[pos]
        out[pos] = xp + np.log(p0 + (1.0 - p0) * np.exp(-xp))
    neg = ~pos
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
    L, J = window_vals.shape
    nT = float(m + t)
    tot_sum = train_sum + run_sum
    tot_ssq = train_sumsq + run_sumsq

    rev = window_vals[::-1]
    sum2 = np.cumsum(rev, axis=0)[1:]
    ssq2 = np.cumsum(rev * rev, axis=0)[1:]
    n2 = np.arange(2, L + 1, dtype=float)[:, None]
    n1 = nT - n2
    sum1 = tot_sum - sum2
    ssq1 = tot_ssq - ssq2

    var_t = (tot_ssq - tot_sum * tot_sum / nT) / nT
    var_1 = (ssq1 - sum1 * sum1 / n1) / n1
    var_2 = (ssq2 - sum2 * sum2 / n2) / n2
    # the two-point segment is cancellation-prone in prefix form; its exact
    # variance is ((a - b) / 2)^2
    var_2[0] = 0.25 * np.square(rev[0] - rev[1])
    clamped = int((var_t < var_floor).sum() + (var_1 < var_floor).sum() + (var_2 < var_floor).sum())
    var_t = np.maximum(var_t, var_floor)
    var_1 = np.maximum(var_1, var_floor)
    var_2 = np.maximum(var_2, var_floor)

    llr = 0.5 * (nT * np.log(var_t)[None, :] - n1 * np.log(var_1) - n2 * np.log(var_2))
    # rows are ordered by segment length n2 = 2..L, i.e. k descending;
    # flip so row i corresponds to k = kmin + i
    x = llr[::-1] / cvals[:, None]
    lam = mixture_terms(x, p0).sum(axis=1)
    idx = int(np.argmax(lam))  # first max, so the smallest k wins ties
    return float(lam[idx]), kmin + idx, clamped


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
    evaluates only the admissible cells (2 <= n2 <= min(t, window + 1))
    and repeats ``scan_step``'s operations in the same order: the running
    totals use ``StreamStats.append``'s Kahan steps, the segment sums are
    cumulative sums over the reversed window, the two-point segment uses
    its exact variance, and the mixture sum runs over a contiguous J axis.

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
    both = np.stack([vals, vals * vals], axis=1)
    first = t_end - vals.shape[0] + 1  # time of vals[0]
    # rev[s] holds the w + 1 times up to first + s + w, newest first: a
    # strided view, so no window is copied
    rev = sliding_window_view(both, cap, axis=0).transpose(0, 3, 1, 2)[:, ::-1]

    def state_at(t, total, comp):
        return ScanState(total, comp, vals[t - first + 1 - min(t, cap):t - first + 1], t)

    total, comp = state.total, state.comp
    if t_prev == 0 and T:  # time 1 has no candidate; it only enters the totals
        total, comp = _kahan(total, comp, both[1 - first:2 - first])
    t0 = max(2, t_prev + 1)
    while t0 <= t_end:
        t1 = _block_end(t0, t_end, J, window)
        B = t1 - t0
        run = np.empty((B, 2, J))
        total, comp = _kahan(total, comp, both[t0 - first:t1 - first], run)
        ts = np.arange(t0, t1)
        out = slice(t0 - t_prev - 1, t1 - t_prev - 1)
        tot = train + run
        tot_sum, tot_ssq = tot[:, 0], tot[:, 1]
        nT = (m + ts).astype(float)[:, None]
        var_t = (tot_ssq - tot_sum * tot_sum / nT) / nT
        clamped[out] = (var_t < var_floor).sum(axis=1)
        log_t = nT * np.log(np.maximum(var_t, var_floor))

        L = min(t1 - 1, cap)  # longest admissible segment in the block
        # rev_z[b, i] = z at time ts[b] - i
        blk = rev[t0 - window - first:t1 - window - first, :L]
        rev_z, rev_sq = blk[:, :, 0], blk[:, :, 1]
        n2_row = np.arange(2, L + 1)
        adm = n2_row[None, :] <= np.minimum(ts, cap)[:, None]  # (B, L - 1)
        bi, ri = np.nonzero(adm)
        sum2 = np.cumsum(rev_z, axis=1)[:, 1:][adm]
        ssq2 = np.cumsum(rev_sq, axis=1)[:, 1:][adm]
        n2i = n2_row[ri]
        n2 = n2i.astype(float)[:, None]
        n1 = nT[bi] - n2
        # scan_step's formulas, computed in place to keep the block's
        # memory small; every operation and its order are the same
        sum1 = tot_sum[bi]
        sum1 -= sum2
        var_1 = tot_ssq[bi]
        var_1 -= ssq2  # ssq1
        sum1 *= sum1
        sum1 /= n1
        var_1 -= sum1
        var_1 /= n1  # (ssq1 - sum1 * sum1 / n1) / n1
        var_2 = ssq2
        np.multiply(sum2, sum2, out=sum1)
        sum1 /= n2
        var_2 -= sum1
        var_2 /= n2  # (ssq2 - sum2 * sum2 / n2) / n2
        # the two-point segment is cancellation-prone in prefix form; its
        # exact variance is ((a - b) / 2)^2
        var_2[ri == 0] = 0.25 * np.square(rev_z[:, 0] - rev_z[:, 1])
        for var in (var_1, var_2):
            low = var < var_floor
            if low.any():
                clamped[out] += np.bincount(bi, weights=low.sum(axis=1), minlength=B).astype(np.int64)
            np.maximum(var, var_floor, out=var)
        np.log(var_1, out=var_1)
        var_1 *= n1
        np.log(var_2, out=var_2)
        var_2 *= n2
        llr = log_t[bi]
        llr -= var_1
        llr -= var_2
        llr *= 0.5  # 0.5 * (nT * log(var_t) - n1 * log(var_1) - n2 * log(var_2))
        tc = ts[bi]
        cvals = 0.5 * (h[m + tc - n2i] + h[n2i] - h[m + tc])
        llr /= cvals[:, None]
        lam = np.full(adm.shape, -np.inf)
        lam[adm] = mixture_terms(llr, p0).sum(axis=1)
        # the largest n2 is the smallest k, which wins ties
        best = L - 2 - np.argmax(lam[:, ::-1], axis=1)
        block_stat = lam[np.arange(B), best]
        stat[out] = block_stat
        argmax_k[out] = ts - 2 - best
        if threshold is not None and np.any(block_stat >= threshold):
            n = t1 - 1 - t_prev
            return stat[:n], argmax_k[:n], clamped[:n], state_at(t1 - 1, total, comp)
        t0 = t1
    return stat, argmax_k, clamped, state_at(t_end, total, comp)
