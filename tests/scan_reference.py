"""The per-step scan and its running state as a test reference, written apart from ``tailormon._kernel``.

``scan_step`` here is the per-step numpy kernel with its own mixture
terms, laid out (candidates, J) and taking every segment variance in one
expression, apart from the library's one cell scan. Like the library it
takes each candidate's pre-change sums as the training sums plus the
running sums at the candidate. ``RingStats`` is a running state kept its
own way: ring buffers of the last w + 1 values and of the running sums
before each of them, and running totals with their own Kahan steps, one
array at a time. The bitwise tests compare the library against them, so
a fault in the shared code cannot hide by being on both sides of a
comparison.
"""

import numpy as np


class RingStats:
    """Running totals and a ring buffer of the last ``window + 1`` values of J streams."""

    def __init__(self, train_sum, train_sumsq, m, window):
        self.train_sum = train_sum
        self.train_sumsq = train_sumsq
        self.m = m
        self.window = window
        n_streams = train_sum.shape[0]
        self.ring = np.zeros((window + 1, n_streams))
        # the running sums and sums of squares before each ring value's time
        self.ring_prefix = np.zeros((window + 1, 2, n_streams))
        self.t = 0
        self.run_sum = np.zeros(n_streams)
        self.run_sumsq = np.zeros(n_streams)
        self.comp_sum = np.zeros(n_streams)
        self.comp_sumsq = np.zeros(n_streams)

    def append(self, z):
        cap = self.window + 1
        self.ring[self.t % cap] = z
        self.ring_prefix[self.t % cap] = self.run_sum, self.run_sumsq
        self.t += 1
        for total, comp, v in (
            (self.run_sum, self.comp_sum, z),
            (self.run_sumsq, self.comp_sumsq, z * z),
        ):
            y = v - comp
            s = total + y
            comp[:] = (s - total) - y
            total[:] = s

    def _in_order(self, ring):
        cap = self.window + 1
        length = min(self.t, cap)
        start = (self.t - length) % cap
        end = self.t % cap
        if start < end or length == 0:
            return ring[start:start + length]
        return np.concatenate([ring[start:], ring[:end]])

    def window_values(self):
        """Buffered values for times t-L+1..t, oldest first, L = min(t, w+1)."""
        return self._in_order(self.ring)

    def window_prefix(self):
        """The running sums and sums of squares (L, 2, J) before each of those times: over times 1..k, k = t-L..t-1."""
        return self._in_order(self.ring_prefix)


def mixture_terms(x: np.ndarray, p0: float) -> np.ndarray:
    """log(1 - p0 + p0 * exp(x)) evaluated without overflow.

    For x > 0 the identity x + log(p0 + (1 - p0) * exp(-x)) is used, so
    p0 = 1 reduces to x exactly. Each form is evaluated only where it
    applies; statistics are mostly positive, so the x <= 0 form is rare.
    At p0 = 1 the x <= 0 form is -inf below about x = -37; x is returned
    there.
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
    with np.errstate(divide="ignore"):
        out[neg] = np.log1p(p0 * np.expm1(x[neg]))
    if p0 == 1.0:
        # log1p(expm1(x)) is -inf where expm1 rounds to -1; the term is x
        out[np.isneginf(out)] = x[np.isneginf(out)]
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
        Running totals over times 1..k of the values and of their squares,
        k = t-L..t-1.

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

    # row i of every (L - 1, J) array is the candidate k = t - 2 - i, whose
    # post-change segment holds the newest n2 = i + 2 values
    rev = window_vals[::-1]
    sum2 = np.cumsum(rev, axis=0)[1:]
    ssq2 = np.cumsum(rev * rev, axis=0)[1:]
    n2 = np.arange(2, L + 1, dtype=float)[:, None]
    # the pre-change segment holds the training values and those of times
    # 1..k: training sums plus the running sums at k
    run_k = prefix[L - 2::-1]
    n1 = (m + t - np.arange(2, L + 1)).astype(float)[:, None]
    sum1 = train_sum + run_k[:, 0]
    ssq1 = train_sumsq + run_k[:, 1]

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


def kahan_rows(total, comp, v, run=None):
    """Add the rows of v, (n, 2, J) or (n, 2, G, J), to the running totals with Kahan's steps, one numpy row at a time.

    The row loop the library's ``_kahan`` keeps for single rows and wide
    stacks; returns the new (total, comp), and ``run[i]``, when given,
    receives the totals after row i.
    """
    for i, row in enumerate(v):
        y = row - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if run is not None:
            run[i] = s
    return total, comp


def block_end(t0, T, n_streams, window, budget, max_steps):
    """The end (exclusive) of the scan block starting at t0, grown one step at a time.

    The block holds at least one step, fewer than ``max_steps``, and
    grows while its (steps, longest segment - 1, n_streams) cells stay
    within ``budget``.
    """
    cap = window + 1
    t1 = t0 + 1
    while t1 <= T and t1 - t0 < max_steps and (t1 + 1 - t0) * (min(t1, cap) - 1) * n_streams <= budget:
        t1 += 1
    return t1


def ring_state(z, train_sum, train_sumsq, m, window) -> RingStats:
    """The reference state after the rows of ``z``, appended one at a time."""
    ring = RingStats(train_sum.copy(), train_sumsq.copy(), m, window)
    for row in z:
        ring.append(row)
    return ring


def same_state(state, ring: RingStats) -> bool:
    """Whether a ``ScanState`` holds ``ring``'s time, totals, compensations, window and prefix sums, bit for bit."""
    return (
        state.t == ring.t
        and np.array_equal(state.total, np.stack([ring.run_sum, ring.run_sumsq]))
        and np.array_equal(state.comp, np.stack([ring.comp_sum, ring.comp_sumsq]))
        and np.array_equal(state.tail, ring.window_values())
        and np.array_equal(state.prefix, ring.window_prefix())
    )
