"""Windowed mixture-GLR monitoring of standardized projections.

Time conventions: training occupies times -m+1..0, monitoring starts at
t = 1, and a change point kappa = 0 means the first monitored point is
already post-change. At each step the statistic is maximized over
candidate change points k with 2 <= t - k <= w + 1 (and k >= 0); an
alarm fires when the maximum reaches the threshold. Statistics for t < 2
are reported as -inf since no candidate is admissible.

With a lag extension l > 0, each monitored vector is the concatenation
of the last l+1 raw observations (oldest first); the first l raw steps
cannot be monitored and trace times refer to raw monitoring time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import digamma

from . import _kernel
from .corrcore import TrainingSummary
from .errors import (
    DegenerateSegment,
    DimensionMismatch,
    InsufficientHistory,
    ZeroEigenvalue,
)
from .tailor import ProjectionSelection

VAR_FLOOR = 1e-12
PD_FLOOR = 1e-8


def _h(a: np.ndarray) -> np.ndarray:
    """a * log(a) - a * digamma((a - 1) / 2), the per-segment term of the correction."""
    a = np.asarray(a, dtype=float)
    return a * np.log(a) - a * digamma((a - 1.0) / 2.0)


def bartlett_correction(m: int, k: int, t: int) -> float:
    """Finite-sample correction factor C(k, t) for the per-stream statistic.

    Defined through

        2C = -(m+t) log(m+t) + (m+t) psi((m+t-1)/2)
             + (m+k) log(m+k) - (m+k) psi((m+k-1)/2)
             + (t-k) log(t-k) - (t-k) psi((t-k-1)/2)

    with psi the digamma function. C is symmetric in the two segment
    lengths m+k and t-k and tends to 1 as both grow.

    For normal segments E[2*llr] = 2C exactly: for n iid normal values
    with ML variance S2, E[n log S2] = n log(sigma^2) + n log(2/n)
    + n psi((n-1)/2), and in the three terms of 2*llr the log 2 and
    log sigma^2 parts cancel. So 2*llr / C has the null mean 2 of
    chi-square_2 (mean and variance both change) at every (m, k, t).
    """
    if m + k < 2 or t - k < 2:
        raise ValueError("bartlett_correction needs m + k >= 2 and t - k >= 2")
    return float(0.5 * (_h(np.array(m + k)) + _h(np.array(t - k)) - _h(np.array(m + t))))


class _BartlettTable:
    """Lazy table of _h(a) for integer segment lengths a >= 2."""

    def __init__(self):
        self._values = np.full(2, np.nan)

    def _ensure(self, amax: int):
        n = self._values.shape[0]
        if amax < n:
            return
        new_n = max(amax + 1, 2 * n, 512)
        grown = np.empty(new_n)
        grown[:n] = self._values
        grown[n:] = _h(np.arange(n, new_n))
        self._values = grown

    def upto(self, amax: int) -> np.ndarray:
        """The table, valid for segment lengths 2..amax."""
        self._ensure(amax)
        return self._values

    def cvals(self, m: int, t: int, kmin: int) -> np.ndarray:
        """C(k, t) for k = kmin..t-2."""
        self._ensure(m + t)
        ks = np.arange(kmin, t - 1)
        h = self._values
        return 0.5 * (h[m + ks] + h[t - ks] - h[m + t])


def mixture_statistic(llrs, correction: float, p0: float) -> float:
    """Corrected mixture statistic sum_d log(1 - p0 + p0 * exp(llr_d / C)).

    Overflow-safe for large ratios; p0 = 1 reduces exactly to
    sum(llrs) / correction.
    """
    if not 0.0 < p0 <= 1.0:
        raise ValueError("p0 must lie in (0, 1]")
    x = np.asarray(llrs, dtype=float) / correction
    return float(_kernel.mixture_terms(x, p0).sum())


def lag_extend(history, lag: int) -> np.ndarray:
    """Concatenate the last lag+1 vectors of ``history``, oldest first."""
    if lag < 0:
        raise ValueError("lag must be non-negative")
    vecs = list(history)
    if len(vecs) < lag + 1:
        raise InsufficientHistory(f"need {lag + 1} observations, have {len(vecs)}")
    return np.concatenate([np.asarray(v, dtype=float) for v in vecs[-(lag + 1):]])


def lag_extend_matrix(data, lag: int) -> np.ndarray:
    """Lag-extend every admissible row of an (n, D) matrix to (n - lag, D*(lag+1))."""
    if lag < 0:
        raise ValueError("lag must be non-negative")
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch("expected a 2-d data matrix")
    if lag == 0:
        return x.copy()
    if x.shape[0] < lag + 1:
        raise InsufficientHistory(f"need at least {lag + 1} rows, have {x.shape[0]}")
    w = sliding_window_view(x, lag + 1, axis=0)
    return w.transpose(0, 2, 1).reshape(x.shape[0] - lag, -1).copy()


@dataclass
class StreamStats:
    """Mutable per-stream state of a monitoring run.

    Holds the frozen training sufficient statistics, a ring buffer of the
    last ``window + 1`` monitored vectors, and compensated running totals
    over all monitoring values so far (Kahan summation keeps the running
    prefix sums drift-free on long streams; window segment sums are
    recomputed from the buffer at every step).
    """

    train_sum: np.ndarray
    train_sumsq: np.ndarray
    m: int
    window: int
    ring: np.ndarray = field(init=False)
    t: int = field(init=False, default=0)
    run_sum: np.ndarray = field(init=False)
    run_sumsq: np.ndarray = field(init=False)
    _comp_sum: np.ndarray = field(init=False)
    _comp_sumsq: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be at least 2")
        n_streams = self.train_sum.shape[0]
        self.ring = np.zeros((self.window + 1, n_streams))
        self.run_sum = np.zeros(n_streams)
        self.run_sumsq = np.zeros(n_streams)
        self._comp_sum = np.zeros(n_streams)
        self._comp_sumsq = np.zeros(n_streams)

    @property
    def n_streams(self) -> int:
        return self.train_sum.shape[0]

    def append(self, z: np.ndarray):
        cap = self.window + 1
        self.ring[self.t % cap] = z
        self.t += 1
        for total, comp, v in (
            (self.run_sum, self._comp_sum, z),
            (self.run_sumsq, self._comp_sumsq, z * z),
        ):
            y = v - comp
            s = total + y
            comp[:] = (s - total) - y
            total[:] = s

    def window_values(self) -> np.ndarray:
        """Buffered values for times t-L+1..t, oldest first, L = min(t, w+1)."""
        cap = self.window + 1
        length = min(self.t, cap)
        start = (self.t - length) % cap
        end = self.t % cap
        if start < end:
            return self.ring[start:end]
        return np.concatenate([self.ring[start:], self.ring[:end]])

    def segment_stats(self, k: int) -> tuple:
        """Counts, sums and sums of squares of the three segments at candidate k.

        Returns ((n1, sum1, ssq1), (n2, sum2, ssq2), (nT, sumT, ssqT)) for
        the pre-candidate, post-candidate and pooled segments.
        """
        t = self.t
        if not (0 <= k and 2 <= t - k <= self.window + 1):
            raise ValueError(f"candidate k={k} inadmissible at time t={t} with window {self.window}")
        win = self.window_values()
        tail = win[win.shape[0] - (t - k):]
        sum2 = tail.sum(axis=0)
        ssq2 = (tail * tail).sum(axis=0)
        sum_t = self.train_sum + self.run_sum
        ssq_t = self.train_sumsq + self.run_sumsq
        return (
            (self.m + k, sum_t - sum2, ssq_t - ssq2),
            (t - k, sum2, ssq2),
            (self.m + t, sum_t, ssq_t),
        )


def stream_llr(stats: StreamStats, k: int, *, clamp: bool = False, var_floor: float = VAR_FLOOR) -> np.ndarray:
    """Per-stream maximized log-likelihood ratio for candidate k at the current time.

    With maximum-likelihood segment variances S2,

        llr = -((m+k)/2) log(S2_pre / S2_all) - ((t-k)/2) log(S2_post / S2_all),

    which is non-negative up to floating-point noise. Segment variances
    below ``var_floor`` raise DegenerateSegment unless ``clamp`` is set,
    in which case they are floored (the monitor uses the clamped form and
    counts a warning).
    """
    (n1, sum1, ssq1), (n2, sum2, ssq2), (nt, sumt, ssqt) = stats.segment_stats(k)

    def mle_var(n, s, q):
        return (q - s * s / n) / n

    v1 = mle_var(n1, sum1, ssq1)
    if n2 == 2:
        tail = stats.window_values()[-2:]
        v2 = 0.25 * np.square(tail[1] - tail[0])
    else:
        v2 = mle_var(n2, sum2, ssq2)
    vt = mle_var(nt, sumt, ssqt)
    low = np.concatenate([v1, v2, vt]) < var_floor
    if np.any(low):
        if not clamp:
            raise DegenerateSegment(f"{int(low.sum())} segment variance(s) below {var_floor:.1e}")
        v1 = np.maximum(v1, var_floor)
        v2 = np.maximum(v2, var_floor)
        vt = np.maximum(vt, var_floor)
    return 0.5 * (nt * np.log(vt) - n1 * np.log(v1) - n2 * np.log(v2))


@dataclass(frozen=True)
class StepResult:
    """Outcome of one monitoring step.

    ``t`` is the raw monitoring time (1-based), ``stat`` the maximum
    corrected mixture statistic over admissible candidates (-inf when no
    candidate exists yet), ``argmax_k`` the smallest raw-time candidate
    attaining it, and ``warnings`` the number of variance clamps applied
    in this step.
    """

    t: int
    stat: float
    argmax_k: int | None
    alarm: bool
    warnings: int


@dataclass(frozen=True)
class MonitorRun:
    """Stopping time and trace of a monitoring run.

    ``alarm_time`` is None when the stream ended without an alarm; the
    ``censored`` flag mirrors that (the serialized form uses a null
    stopping time plus an explicit censored flag).
    """

    alarm_time: int | None
    steps: int
    trace: tuple[StepResult, ...]
    warnings: int

    @property
    def alarmed(self) -> bool:
        return self.alarm_time is not None

    @property
    def censored(self) -> bool:
        return self.alarm_time is None


@dataclass(frozen=True)
class MonitorModel:
    """Frozen description of a monitoring configuration.

    Built once from a training summary, a projection selection and the
    (lag-extended) training rows; estimates are never updated while
    monitoring. Immutable and safe to share across threads; each run
    keeps its state in a separate ``StreamStats``.
    """

    training: TrainingSummary
    selection: ProjectionSelection
    p0: float
    window: int
    lag: int
    threshold: float
    training_projections: np.ndarray | None
    projector: np.ndarray
    train_sum: np.ndarray
    train_sumsq: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.p0 <= 1.0:
            raise ValueError("p0 must lie in (0, 1]")
        if self.window < 2:
            raise ValueError("window must be at least 2")
        if self.lag < 0:
            raise ValueError("lag must be non-negative")
        if self.training.dim % (self.lag + 1) != 0:
            raise DimensionMismatch("training dimension is not divisible by lag + 1")
        if self.selection.dim != self.training.dim:
            raise DimensionMismatch("selection and training dimensions disagree")

    @property
    def dim(self) -> int:
        """Dimension of the monitored (lag-extended) vectors."""
        return self.training.dim

    @property
    def raw_dim(self) -> int:
        return self.training.dim // (self.lag + 1)

    @property
    def n_streams(self) -> int:
        return self.selection.n_axes

    @property
    def m(self) -> int:
        """Count of (lag-extended) training vectors."""
        return self.training.m

    def with_threshold(self, threshold: float) -> "MonitorModel":
        return replace(self, threshold=float(threshold))


def _projector(training: TrainingSummary, selection: ProjectionSelection, pd_floor: float) -> np.ndarray:
    """D x J matrix mapping centred observations to standardized projections."""
    lam = np.asarray(selection.eigenvalues, dtype=float)
    if np.any(lam <= pd_floor):
        raise ZeroEigenvalue("a selected eigenvalue is at or below the PD floor")
    return selection.eigenvectors / training.sdev[:, None] / np.sqrt(lam)[None, :]


def build_monitor_model(
    training: TrainingSummary,
    selection: ProjectionSelection,
    training_data,
    *,
    p0: float = 1.0,
    window: int = 200,
    lag: int = 0,
    threshold: float = math.inf,
    pd_floor: float = PD_FLOOR,
) -> MonitorModel:
    """Assemble a monitor model from training artifacts.

    ``training_data`` are the lag-extended training rows the summary was
    estimated from; their standardized projections seed the per-stream
    training sufficient statistics.
    """
    projector = _projector(training, selection, pd_floor)
    x = np.asarray(training_data, dtype=float)
    if x.shape != (training.m, training.dim):
        raise DimensionMismatch("training data shape does not match the training summary")
    z = (x - training.mean) @ projector
    model = restore_monitor_model(
        training,
        selection,
        z.sum(axis=0),
        (z * z).sum(axis=0),
        p0=p0,
        window=window,
        lag=lag,
        threshold=threshold,
        pd_floor=pd_floor,
    )
    return replace(model, training_projections=z)


def restore_monitor_model(
    training: TrainingSummary,
    selection: ProjectionSelection,
    train_sum,
    train_sumsq,
    *,
    p0: float = 1.0,
    window: int = 200,
    lag: int = 0,
    threshold: float = math.inf,
    pd_floor: float = PD_FLOOR,
) -> MonitorModel:
    """Rebuild a monitor model from serialized artifacts (no raw training rows)."""
    return MonitorModel(
        training=training,
        selection=selection,
        p0=float(p0),
        window=int(window),
        lag=int(lag),
        threshold=float(threshold),
        training_projections=None,
        projector=_projector(training, selection, pd_floor),
        train_sum=np.asarray(train_sum, dtype=float).copy(),
        train_sumsq=np.asarray(train_sumsq, dtype=float).copy(),
    )


def project_observation(model: MonitorModel, x) -> np.ndarray:
    """Standardized projections of one (lag-extended) observation.

    z_j = v_j' S0^{-1} (x - mu0) / sqrt(lam_j) for every selected axis j.
    The division by sqrt(lam_j) normalizes each projection to unit
    training variance, which keeps the segment statistics well scaled for
    the least varying axes.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise DimensionMismatch(f"expected a vector of dimension {model.dim}, got shape {x.shape}")
    return (x - model.training.mean) @ model.projector


def trace_stats(model: MonitorModel, rows, threshold: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Step statistics of a stream known in full, as ``Monitor.step`` would report them.

    Lag-extends the raw rows, projects each one as ``project_observation``
    does and scans the whole trace with ``_kernel.scan_trace``. Returns
    (stat, argmax_k) in raw time: entry i is raw step i + 1, with -inf
    and -1 where no candidate exists. With ``threshold`` the scan may stop
    after the block of steps where a statistic first reaches it, so the
    arrays can be shorter than the stream. Matches ``Monitor.step`` bit
    for bit when the numpy step kernel is active.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.raw_dim:
        raise DimensionMismatch(f"expected rows of dimension {model.raw_dim}, got shape {x.shape}")
    if not np.isfinite(x.sum(axis=1)).all():
        raise ValueError("observation contains a non-finite value")
    lag = model.lag
    n_raw = x.shape[0]
    stat = np.full(n_raw, -math.inf)
    argmax_k = np.full(n_raw, -1, dtype=np.int64)
    if n_raw <= lag:
        return stat, argmax_k
    ext = x if lag == 0 else lag_extend_matrix(x, lag)
    # one vector-matrix product per row, the product project_observation
    # makes; a single matrix product sums in another order
    z = np.matmul((ext - model.training.mean)[:, None, :], model.projector)[:, 0]
    h = _BartlettTable().upto(model.m + z.shape[0])
    s, k = _kernel.scan_trace(
        z, model.train_sum, model.train_sumsq, model.m, model.window, model.p0, h, VAR_FLOOR, threshold
    )
    end = lag + s.shape[0]
    stat[lag:end] = s
    argmax_k[lag:end] = np.where(k >= 0, k + lag, -1)
    return stat[:end], argmax_k[:end]


class Monitor:
    """Single-writer streaming monitor over a frozen model."""

    def __init__(self, model: MonitorModel):
        self.model = model
        self._stats = StreamStats(
            train_sum=model.train_sum.copy(),
            train_sumsq=model.train_sumsq.copy(),
            m=model.m,
            window=model.window,
        )
        self._raw_history: deque = deque(maxlen=model.lag + 1)
        self._t_raw = 0
        self._table = _BartlettTable()  # each monitor owns its correction table
        self.total_warnings = 0

    @property
    def stats(self) -> StreamStats:
        return self._stats

    @property
    def t(self) -> int:
        return self._t_raw

    def _cvals(self, t: int, kmin: int) -> np.ndarray:
        return self._table.cvals(self._stats.m, t, kmin)

    def step(self, x) -> StepResult:
        """Consume one raw observation and scan all admissible candidates."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.model.raw_dim,):
            raise DimensionMismatch(
                f"expected a raw vector of dimension {self.model.raw_dim}, got shape {x.shape}"
            )
        # one inf or NaN would poison the running sums for good. The sum is
        # non-finite when any entry is, and costs less than testing each
        # entry; it also overflows for entries near the float limit, whose
        # squares the running sums could not hold either.
        if not math.isfinite(x.sum()):
            raise ValueError("observation contains a non-finite value")
        self._t_raw += 1
        lag = self.model.lag
        if lag > 0:
            # a copy: callers may refill one buffer for every row
            self._raw_history.append(x.copy())
            if len(self._raw_history) < lag + 1:
                return StepResult(t=self._t_raw, stat=-math.inf, argmax_k=None, alarm=False, warnings=0)
            xe = np.concatenate(self._raw_history)
        else:
            xe = x
        stats = self._stats
        stats.append(project_observation(self.model, xe))
        t = stats.t
        if t < 2:
            return StepResult(t=self._t_raw, stat=-math.inf, argmax_k=None, alarm=False, warnings=0)
        kmin = max(0, t - self.model.window - 1)
        stat, argmax_k, clamped = _kernel.scan_step(
            stats.train_sum,
            stats.train_sumsq,
            stats.m,
            stats.run_sum,
            stats.run_sumsq,
            np.ascontiguousarray(stats.window_values()),
            t,
            kmin,
            self.model.p0,
            self._cvals(t, kmin),
            VAR_FLOOR,
        )
        self.total_warnings += clamped
        return StepResult(
            t=self._t_raw,
            stat=float(stat),
            argmax_k=int(argmax_k) + lag,
            alarm=bool(stat >= self.model.threshold),
            warnings=int(clamped),
        )

    def run(self, stream, *, collect_trace: bool = True, stop_on_alarm: bool = True) -> MonitorRun:
        """Iterate a stream of raw vectors until the first alarm or stream end."""
        trace: list[StepResult] = []
        alarm_time = None
        for x in stream:
            res = self.step(x)
            if collect_trace:
                trace.append(res)
            if res.alarm and alarm_time is None:
                alarm_time = res.t
                if stop_on_alarm:
                    break
        return MonitorRun(
            alarm_time=alarm_time,
            steps=self._t_raw,
            trace=tuple(trace),
            warnings=self.total_warnings,
        )
