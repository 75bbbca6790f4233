"""The per-step scan as a test reference, written apart from ``tailormon._kernel``.

``scan_step`` here is the numpy kernel, with its mixture terms, as it
stood before the library's one-step and trace scans came to share one
cell scan. The bitwise tests compare the library against it, so a fault
in the shared code cannot hide by being on both sides of a comparison.
"""

import numpy as np


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
