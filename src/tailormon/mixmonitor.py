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

A ``Monitor`` takes rows one at a time (``step``, on the one-step scan)
or in blocks (``feed``, on the resumable trace scan). Both run on one
state, the ``_kernel.ScanState`` its ``StreamStats`` holds, and give the
same results bit for bit. ``feed`` builds its ``StepResult``s from the
arrays of ``_feed_arrays``, which the ``monitor`` command writes its
JSONL from directly; it is the library's one-stream scan, and with
``stop_on_alarm`` it stops at the first alarm. The state keeps, next to
its window, the running sums before each window time, so each candidate's
pre-change sums are the training plus the running sums at it.
Calibration builds a batch of bootstrap replicas with the same projector,
training-sum and row-check arithmetic, on stacks (``_projectors``,
``_training_sums``, ``_checked_stack``), and then scans the batch
side by side in one stacked trace scan (``_stacked_maxima``). Simulated
trials check and project each stream alone a stretch at a time
(``_checked_projections``), and scan a group of them side by side from
the state the last stretch left, each stream stopping at its first
alarm (``_stacked_crossings``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import digamma

from . import _kernel
from .corrcore import PD_FLOOR, TrainingSummary, _fault_codes, _raise_first, raw_dimension
from .errors import (
    DegenerateSegment,
    DimensionMismatch,
    InsufficientHistory,
    ZeroEigenvalue,
)
from .tailor import ProjectionSelection

VAR_FLOOR = 1e-12


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


def lag_extend_matrix(data, lag: int) -> np.ndarray:
    """Lag-extend every admissible row of an (n, D) matrix to (n - lag, D*(lag+1))."""
    if lag < 0:
        raise ValueError("lag must be non-negative")
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch("expected a 2-d data matrix")
    return _lag_extend_stack(x[None], lag)[0]


def _lag_extend_stack(x: np.ndarray, lag: int) -> np.ndarray:
    """``lag_extend_matrix`` of every (n, D) matrix of a stack, as a new (G, n - lag, D*(lag+1)) array."""
    g, n, d = x.shape
    if n < lag + 1:
        raise InsufficientHistory(f"need at least {lag + 1} rows, have {n}")
    if lag == 0:
        return x.copy()
    w = sliding_window_view(x, lag + 1, axis=1)
    return w.transpose(0, 1, 3, 2).reshape(g, n - lag, d * (lag + 1)).copy()


@dataclass
class StreamStats:
    """Mutable per-stream state of a monitoring run.

    Holds the frozen training sufficient statistics and the running
    ``_kernel.ScanState``: compensated running totals over all monitoring
    values so far (Kahan summation keeps them drift-free on long streams),
    the last ``window + 1`` monitored vectors, from which window segment
    sums are recomputed at every step, and the running totals before each
    of them, from which each candidate's pre-change sums are taken.
    ``Monitor.step`` advances the state one row at a time;
    ``Monitor.feed`` replaces it with the one its trace scan returns.
    """

    train_sum: np.ndarray
    train_sumsq: np.ndarray
    m: int
    window: int
    state: _kernel.ScanState = field(init=False)

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be at least 2")
        self.state = _kernel.ScanState.fresh(self.n_streams)

    @property
    def n_streams(self) -> int:
        return self.train_sum.shape[0]

    @property
    def t(self) -> int:
        return self.state.t

    @property
    def run_sum(self) -> np.ndarray:
        return self.state.total[0]

    @property
    def run_sumsq(self) -> np.ndarray:
        return self.state.total[1]

    def append(self, z: np.ndarray):
        self.state = _kernel.advance_state(self.state, np.asarray(z, dtype=float)[None], self.window)

    def window_values(self) -> np.ndarray:
        """Buffered values for times t-L+1..t, oldest first, L = min(t, w+1)."""
        return self.state.tail

    def segment_stats(self, k: int) -> tuple:
        """Counts, sums and sums of squares of the three segments at candidate k.

        Returns ((n1, sum1, ssq1), (n2, sum2, ssq2), (nT, sumT, ssqT)) for
        the pre-candidate, post-candidate and pooled segments. The
        pre-candidate sums are the training sums plus the running sums at
        time k, which the state keeps for every candidate, as the scans
        take them.
        """
        t = self.t
        if not (0 <= k and 2 <= t - k <= self.window + 1):
            raise ValueError(f"candidate k={k} inadmissible at time t={t} with window {self.window}")
        win = self.window_values()
        i = win.shape[0] - (t - k)  # the tail row of time k + 1, whose prefix row is the running sums at k
        tail = win[i:]
        sum2 = tail.sum(axis=0)
        ssq2 = (tail * tail).sum(axis=0)
        run_k = self.state.prefix[i]
        return (
            (self.m + k, self.train_sum + run_k[0], self.train_sumsq + run_k[1]),
            (t - k, sum2, ssq2),
            (self.m + t, self.train_sum + self.run_sum, self.train_sumsq + self.run_sumsq),
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
        raw_dimension(self.training.dim, self.lag)
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


def _projectors(vectors: np.ndarray, sdev: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """D x J matrices mapping centred observations to standardized projections, of one model or of a stack of them.

    ``lam`` holds each model's selected eigenvalues; the first model with
    one at or below the PD floor raises ``ZeroEigenvalue``.
    """
    low = (lam <= PD_FLOOR).any(axis=-1)
    _raise_first(_fault_codes([np.atleast_1d(low)]),
                 lambda _: ZeroEigenvalue("a selected eigenvalue is at or below the PD floor"))
    return vectors / sdev[..., :, None] / np.sqrt(lam)[..., None, :]


def _projector(training: TrainingSummary, selection: ProjectionSelection) -> np.ndarray:
    """D x J matrix mapping centred observations to standardized projections."""
    return _projectors(selection.eigenvectors, training.sdev, np.asarray(selection.eigenvalues, dtype=float))


def _training_sums(centered: np.ndarray, projector: np.ndarray):
    """Standardized projections of centred training rows, and their per-stream sums and sums of squares.

    Of one model, (m, D) rows and a D x J projector, or of a stack of
    them. The sums seed each stream's training sufficient statistics.
    """
    z = np.matmul(centered, projector)
    return z, z.sum(axis=-2), (z * z).sum(axis=-2)


def build_monitor_model(
    training: TrainingSummary,
    selection: ProjectionSelection,
    training_data,
    *,
    p0: float = 1.0,
    window: int = 200,
    lag: int = 0,
    threshold: float = math.inf,
) -> MonitorModel:
    """Assemble a monitor model from training artifacts.

    ``training_data`` are the lag-extended training rows the summary was
    estimated from; their standardized projections seed the per-stream
    training sufficient statistics. A calibration builds a batch of
    bootstrap replicas with the same projector and training-sum
    arithmetic on stacks; this is the one-model case.
    """
    x = np.asarray(training_data, dtype=float)
    if x.shape != (training.m, training.dim):
        raise DimensionMismatch("training data shape does not match the training summary")
    # the sums need the model's projector, so they are added after it
    model = restore_monitor_model(training, selection, (), (), p0=p0, window=window, lag=lag, threshold=threshold)
    z, train_sum, train_sumsq = _training_sums(x - training.mean, model.projector)
    return replace(model, training_projections=z, train_sum=train_sum, train_sumsq=train_sumsq)


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
        projector=_projector(training, selection),
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


def _project_rows(x: np.ndarray, mean: np.ndarray, projector: np.ndarray) -> np.ndarray:
    """``project_observation`` of every row of x, bit for bit, for one model or a stack of them.

    One vector-matrix product per row, the product ``project_observation``
    makes; a single matrix product sums in another order. Of one model:
    x (T, D), mean (D,), projector (D, J); of a stack, each gains a
    leading axis of G models.
    """
    return np.matmul((x - mean[..., None, :])[..., None, :], projector[..., None, :, :])[..., 0, :]


_RAW_REJECT = "observation contains a non-finite value or one whose square overflows"
_PROJECTED_REJECT = "observation projects to a value whose square is non-finite"
_TOTALS_REJECT = "observation makes the running sums of squares too large to scan"
# the row checks of a block in the order they run; a fault code indexes this
_ROW_REJECTS = (_RAW_REJECT, _PROJECTED_REJECT, _TOTALS_REJECT)


def _unsquarable(v: np.ndarray, axis=None):
    """Whether one of v's entries is NaN or squares to infinity; per set of a stack, ``axis`` the axes of a set.

    Such an entry in a projection would poison the running sums of
    squares for good, and every later statistic would be NaN. A finite
    value such as 1e200 does that too, so testing the values alone is not
    enough. Raw rows are tested the same way before they are projected,
    which also covers the rows a lagged monitor holds before it can
    project them. Call under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    return ~np.isfinite(v * v).all(axis=axis)


def _sums_unsquarable(sumsq: np.ndarray, n: int):
    """Whether training-plus-running sums of squares are too large for the scan to square, per set (last axis: its J streams).

    ``sumsq`` holds each stream's training plus running sum of squares
    over its n = m + t values. Every sum s of k <= n of those values that
    the scan forms, a total or a segment's sum, has s * s <= k * sumsq
    (Cauchy-Schwarz), so s * s, and s * s / k, stay finite while
    2 * n * sumsq does; the factor 2 leaves room for rounding. Rows that
    each pass ``_unsquarable`` can still fail this together. The sums
    only grow, so testing them after the last row of a block covers every
    step of it. ``sumsq`` may hold infinities: call under
    ``np.errstate(over="ignore")``.
    """
    return ~(sumsq.max(axis=-1) * (2.0 * n) < math.inf)


def _checked(v: np.ndarray, message: str) -> np.ndarray:
    """``v``, unless ``_unsquarable(v)``."""
    if _unsquarable(v):
        raise ValueError(message)
    return v


def _check_totals(sumsq: np.ndarray, n: int):
    """Reject values whose training-plus-running sums of squares the scan cannot square (``_sums_unsquarable``)."""
    if _sums_unsquarable(sumsq, n):
        raise ValueError(_TOTALS_REJECT)


def _checked_stack(raw, ext, mean, projector, sumsq, n: int) -> np.ndarray:
    """Standardized projections of blocks of rows, each block checked as ``Monitor.step`` checks its rows one by one.

    Stacks of G blocks: raw (G, R, D_raw) holds each block's raw rows and
    ext (G, T, D) their lag-extended vectors; mean (G, D) and projector
    (G, D, J) are each block's model, and sumsq (G, J) its training plus
    running sums of squares over its n values before the block. Returns
    z (G, T, J); the first block that fails a row check raises its
    ``ValueError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = _project_rows(ext, mean, projector)
        codes = _fault_codes([
            _unsquarable(raw, (1, 2)),
            _unsquarable(z, (1, 2)),
            _sums_unsquarable(sumsq + (z * z).sum(axis=1), n + z.shape[1]),
        ])
    _raise_first(codes, lambda code: ValueError(_ROW_REJECTS[code]))
    return z


def _raw_block(model: MonitorModel, rows) -> np.ndarray:
    """A block of raw rows as a (n, raw_dim) array; an empty sequence is a block of no rows."""
    x = np.asarray(rows, dtype=float)
    if x.shape == (0,):
        return x.reshape(0, model.raw_dim)
    if x.ndim != 2 or x.shape[1] != model.raw_dim:
        raise DimensionMismatch(f"expected raw vectors of dimension {model.raw_dim}, got shape {x.shape}")
    return x


def _checked_projections(model: MonitorModel, rows, state, history):
    """Check, lag-extend and project a block of raw rows that follows a running state.

    ``state`` is the ``_kernel.ScanState`` before the block and
    ``history`` the raw rows held before it, the last ``model.lag`` or
    more of them; neither is changed. The rows are tested as
    ``_checked_stack`` tests a block of one. Returns (short, z): the
    first ``short`` rows still lack the lag + 1 rows an extended vector
    needs, and z holds the standardized projections of the others.
    """
    x = _raw_block(model, rows)
    lag = model.lag
    held = len(history)
    short = min(x.shape[0], max(0, lag - held))
    if lag == 0:
        ext = x
    elif short < x.shape[0]:
        ext = lag_extend_matrix(np.vstack([*history, x]), lag)[held + short - lag:]
    else:
        ext = np.empty((0, model.dim))
    z = _checked_stack(
        x[None], ext[None], model.training.mean[None], model.projector[None],
        (model.train_sumsq + state.total[1])[None], model.m + state.t,
    )
    return short, z[0]


def _scan_rows(model: MonitorModel, rows, state, history, table: _BartlettTable, threshold: float | None):
    """Check, lag-extend, project and scan a block of raw rows from a running state.

    ``state``, ``history`` and the checks are those of
    ``_checked_projections``; nothing is scanned unless every row passes.
    Returns (short, stat, argmax_k, clamped, state): the first ``short``
    rows are not scanned; the arrays hold every scanned step, argmax_k in
    raw time and -1 where no candidate exists; the state is the one after
    the last scanned step. With ``threshold`` the scan stops at the first
    step whose statistic reaches it.
    """
    short, z = _checked_projections(model, rows, state, history)
    h = table.upto(model.m + state.t + z.shape[0])
    stat, k, clamped, state = _kernel.scan_trace(
        z, model.train_sum, model.train_sumsq, model.m, model.window, model.p0, h, VAR_FLOOR, threshold, state=state
    )
    return short, stat, np.where(k >= 0, k + model.lag, -1), clamped, state


def _stacked_maxima(train_sum, train_sumsq, z, m: int, window: int, p0: float) -> np.ndarray:
    """The largest statistic of each of G streams over its rows, from one stacked trace scan.

    The streams' training sums, (G, J) each, and z (G, T, J), the checked
    projections (``_checked_stack``) of their rows from a fresh
    state; the streams share m, the window and p0. They are scanned side
    by side as one (T, G, J) trace, which gives each stream's maximum bit
    for bit as ``Monitor.feed`` of its rows from a fresh monitor does
    (-inf where no step has a candidate), in fewer numpy calls than G
    scans.
    """
    z = np.swapaxes(z, 0, 1)
    stat, _, _, _ = _kernel.scan_trace(
        z, train_sum, train_sumsq, m, window, p0, _BartlettTable().upto(m + z.shape[0]), VAR_FLOOR
    )
    return stat.max(axis=1, initial=-math.inf)


def _stacked_crossings(model: MonitorModel, z, threshold: float, state, table: _BartlettTable):
    """Per stream of G, the first of its scanned steps whose statistic reaches ``threshold``, or -1 where none does.

    z (T, G, J) holds the checked projections (``_checked_projections``)
    of the next T rows of G streams, all monitored by ``model``, and
    ``state`` their stacked ``_kernel.ScanState`` before those rows. They
    are scanned side by side as one stacked trace with the model's
    training sums, each stream leaving the scan at its first crossing,
    which is the step at which ``Monitor.feed(stop_on_alarm=True)`` of
    its rows from a fresh monitor stops, bit for bit, however its rows
    were split into stretches. Returns the crossings and the state after
    the T rows of the streams that did not cross, in their order (None
    when every stream crossed).
    """
    T, G, J = z.shape
    if T == 0:
        return np.full(G, -1), state
    stat, _, _, state = _kernel.scan_trace(
        z, np.broadcast_to(model.train_sum, (G, J)), np.broadcast_to(model.train_sumsq, (G, J)), model.m,
        model.window, model.p0, table.upto(model.m + state.t + T), VAR_FLOOR, threshold, state=state,
    )
    hit = stat >= threshold
    return np.where(hit.any(axis=1), np.argmax(hit, axis=1), -1), state


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
        lag = self.model.lag
        history = self._raw_history
        stats = self._stats
        # every test comes before any state changes
        with np.errstate(over="ignore", invalid="ignore"):
            _checked(x, _RAW_REJECT)
            if lag == 0 or len(history) >= lag:
                xe = np.concatenate([*history, x][-(lag + 1):]) if lag else x
                z = _checked(project_observation(self.model, xe), _PROJECTED_REJECT)
                _check_totals(stats.train_sumsq + stats.run_sumsq + z * z, stats.m + stats.t + 1)
        self._t_raw += 1
        if lag > 0:
            # a copy: callers may refill one buffer for every row
            history.append(x.copy())
            if len(history) < lag + 1:
                return StepResult(t=self._t_raw, stat=-math.inf, argmax_k=None, alarm=False, warnings=0)
        stats.append(z)
        t = stats.t
        if t < 2:
            return StepResult(t=self._t_raw, stat=-math.inf, argmax_k=None, alarm=False, warnings=0)
        kmin = max(0, t - self.model.window - 1)
        state = stats.state
        stat, argmax_k, clamped = _kernel.scan_step(
            stats.train_sum,
            stats.train_sumsq,
            stats.m,
            state.total[0],
            state.total[1],
            state.tail,
            t,
            kmin,
            self.model.p0,
            self._cvals(t, kmin),
            VAR_FLOOR,
            state.prefix,
        )
        self.total_warnings += clamped
        return StepResult(
            t=self._t_raw,
            stat=float(stat),
            argmax_k=int(argmax_k) + lag,
            alarm=bool(stat >= self.model.threshold),
            warnings=int(clamped),
        )

    def feed(self, rows, stop_on_alarm: bool = False) -> list[StepResult]:
        """Consume a block of raw observations, as ``step`` would one at a time.

        Returns ``[self.step(x) for x in rows]`` bit for bit, warnings
        included, but scans the block with ``_kernel.scan_trace``, resumed
        from the monitor's state, and keeps the state it returns, so
        ``step`` and ``feed`` calls may be mixed. Every row is checked
        before any state changes. With ``stop_on_alarm`` the scan stops at
        the first alarm; the rows after it are left unconsumed and get no
        result.
        """
        t_first, short, stat, argmax_k, alarm, clamped = self._feed_arrays(rows, stop_on_alarm)
        results = [
            StepResult(t=t_first + i, stat=-math.inf, argmax_k=None, alarm=False, warnings=0)
            for i in range(short)
        ]
        t_scanned = t_first + short
        for i, (s, k, a, c) in enumerate(zip(stat.tolist(), argmax_k.tolist(), alarm.tolist(), clamped.tolist())):
            results.append(StepResult(t=t_scanned + i, stat=s, argmax_k=k if k >= 0 else None, alarm=a, warnings=c))
        return results

    def _feed_arrays(self, rows, stop_on_alarm: bool):
        """``feed``'s scan, with the results as arrays rather than ``StepResult``s.

        Returns (t_first, short, stat, argmax_k, alarm, clamped): the raw
        time of the first row; the count of rows at the front that a
        lagged monitor cannot scan yet, each a step with no candidate;
        then, for every scanned step after them, the statistic, argmax_k
        in raw time (-1 where no candidate exists), whether it alarmed and
        its count of clamped variances.
        """
        model = self.model
        x = _raw_block(model, rows)  # its shape is checked even when it holds no row
        t_first = self._t_raw + 1
        if not x.shape[0]:
            none = np.empty(0, dtype=np.int64)
            return t_first, 0, np.empty(0), none, none.astype(bool), none
        lag = model.lag
        short, stat, argmax_k, clamped, state = _scan_rows(
            model, x, self._stats.state, self._raw_history, self._table,
            model.threshold if stop_on_alarm else None,
        )
        # the tail is a view into the whole scanned block; a copy lets the block go
        self._stats.state = state._replace(tail=state.tail.copy())
        consumed = short + stat.shape[0]
        if lag > 0:
            self._raw_history.extend(x[max(0, consumed - lag - 1):consumed].copy())
        self._t_raw += consumed
        self.total_warnings += int(clamped.sum())
        alarm = (argmax_k >= 0) & (stat >= model.threshold)
        return t_first, short, stat, argmax_k, alarm, clamped

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
