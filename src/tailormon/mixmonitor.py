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
alarm (``_stacked_crossings``). One row check serves all of them
(``_checked_stack``): a row is rejected when a raw value is NaN or
squares to infinity, else when a projection does, else when the running
sums of squares with it are too large to scan. A block is tested whole,
and one that fails raises the error ``step`` raises at its first
rejected row, before any state changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
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
    n = x.shape[1]
    if n < lag + 1:
        raise InsufficientHistory(f"need at least {lag + 1} rows, have {n}")
    # block j of every vector: the row j steps after its oldest
    return np.concatenate([x[:, j:n - lag + j] for j in range(lag + 1)], axis=2)


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


# the errors of the row checks in the order they run; a fault code indexes this
_ROW_REJECTS = (
    "observation contains a non-finite value or one whose square overflows",
    "observation projects to a value whose square is non-finite",
    "observation makes the running sums of squares too large to scan",
)


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


def _checked_stack(raw, ext, mean, projector, sumsq, n: int) -> np.ndarray:
    """Standardized projections of blocks of rows, each row checked as ``Monitor.step`` checks a row.

    Stacks of G blocks: raw (G, R, D_raw) holds each block's raw rows and
    ext (G, T, D) the lag-extended vectors of its last T; mean (G, D) and
    projector (G, D, J) are each block's model, and sumsq (G, J) its
    training plus running sums of squares over its n values before the
    block. Returns z (G, T, J).

    The library's one row check: a row is rejected when a raw value is
    NaN or squares to infinity, else when a projection does, else when
    the running sums of squares with it are too large to scan
    (``_sums_unsquarable``). A block is tested whole, so one that passes
    costs no test per row; the first that fails raises the error of its
    first rejected row (``_first_rejected_row``). Squares are not
    negative, so a finite sum of them holds only finite ones: a finite
    bound passes every block at once, and a projection's square that is
    not finite makes its sums so, so two tests decide a block.
    """
    n_after = n + ext.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        z = _project_rows(ext, mean, projector)
        if math.isfinite((sumsq.sum() + np.vdot(z, z)) * (2.0 * n_after) + np.vdot(raw, raw)):
            return z
        zz = z * z
        failed = _unsquarable(raw, (1, 2)) | _sums_unsquarable(sumsq + zz.sum(axis=1), n_after)
    if not failed.any():  # only the bound overflowed
        return z
    g = int(np.argmax(failed))
    raise _first_rejected_row(raw[g], zz[g], sumsq[g], n)


def _first_rejected_row(raw: np.ndarray, zz: np.ndarray, sumsq: np.ndarray, n: int) -> ValueError:
    """The ``ValueError`` of a rejected block's first rejected row, with the row's position in the block as ``row``.

    raw, zz and sumsq are a block's rows, squared projections and sums
    before it (``_checked_stack``); the cumulative sums of zz, the running
    sums after each row, round apart from the block's one sum, and where
    only that one fails the last row takes the error.
    """
    short = raw.shape[0] - zz.shape[0]
    tests = np.zeros((3, raw.shape[0]), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        tests[0] = _unsquarable(raw, 1)
        tests[1, short:] = ~np.isfinite(zz).all(axis=1)
        tests[2, short:] = _sums_unsquarable(sumsq + np.cumsum(zz, axis=0), n + np.arange(1, zz.shape[0] + 1))
    tests[2, -1] = True
    codes = _fault_codes(tests)
    exc = ValueError(_ROW_REJECTS[codes[codes >= 0][0]])
    exc.row = int(np.argmax(codes >= 0))
    return exc


def _checked_projections(model: MonitorModel, x: np.ndarray, state, history: np.ndarray):
    """Check, lag-extend and project a block of raw rows that follows a running state.

    x (R, raw_dim) holds the rows, ``state`` is the ``_kernel.ScanState``
    before them and ``history`` the last ``model.lag`` or fewer raw rows
    before them (``_held_rows``); none is changed. The rows take the one
    row check, ``_checked_stack`` of a block of one. Returns (short, z):
    the first ``short`` rows still lack the lag + 1 rows an extended
    vector needs, and z holds the standardized projections of the others.
    """
    lag = model.lag
    short = min(x.shape[0], lag - history.shape[0])
    if lag == 0:
        ext = x[None]
    elif short < x.shape[0]:
        ext = _lag_extend_stack(np.concatenate([history, x])[None], lag)
    else:
        ext = np.empty((1, 0, model.dim))
    z = _checked_stack(
        x[None], ext, model.training.mean[None], model.projector[None],
        (model.train_sumsq + state.total[1])[None], model.m + state.t,
    )
    return short, z[0]


def _held_rows(history: np.ndarray, x: np.ndarray, lag: int) -> np.ndarray:
    """The last ``lag`` raw rows of ``history`` followed by x, as a new array: a caller may refill x's buffer."""
    n = x.shape[0]
    if n >= lag:
        return x[n - lag:].copy()
    return np.concatenate([history, x])[-lag:]


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
        self._raw_history = np.empty((0, model.raw_dim))  # the last raw rows, up to lag (``_held_rows``)
        self._t_raw = 0
        self._table = _BartlettTable()  # each monitor owns its correction table
        self.total_warnings = 0

    @property
    def stats(self) -> StreamStats:
        return self._stats

    @property
    def t(self) -> int:
        return self._t_raw

    def step(self, x) -> StepResult:
        """Consume one raw observation and scan all admissible candidates; rejects what ``feed`` rejects."""
        model = self.model
        x = np.asarray(x, dtype=float)
        if x.shape != (model.raw_dim,):
            raise DimensionMismatch(f"expected a raw vector of dimension {model.raw_dim}, got shape {x.shape}")
        stats = self._stats
        x = x[None]
        short, z = _checked_projections(model, x, stats.state, self._raw_history)
        self._t_raw += 1
        self._raw_history = _held_rows(self._raw_history, x, model.lag)
        if short:
            return StepResult(t=self._t_raw, stat=-math.inf, argmax_k=None, alarm=False, warnings=0)
        stats.state = state = _kernel.advance_state(stats.state, z, model.window)
        t = state.t
        if t < 2:
            return StepResult(t=self._t_raw, stat=-math.inf, argmax_k=None, alarm=False, warnings=0)
        kmin = max(0, t - model.window - 1)
        stat, argmax_k, clamped = _kernel.scan_step(
            stats.train_sum,
            stats.train_sumsq,
            stats.m,
            state.total[0],
            state.total[1],
            state.tail,
            t,
            kmin,
            model.p0,
            self._table.cvals(stats.m, t, kmin),
            VAR_FLOOR,
            state.prefix,
        )
        self.total_warnings += clamped
        return StepResult(
            t=self._t_raw,
            stat=float(stat),
            argmax_k=int(argmax_k) + model.lag,
            alarm=bool(stat >= model.threshold),
            warnings=int(clamped),
        )

    def feed(self, rows, stop_on_alarm: bool = False) -> list[StepResult]:
        """Consume a block of raw observations, as ``step`` would one at a time.

        Returns ``[self.step(x) for x in rows]`` bit for bit, warnings
        included, but scans the block with ``_kernel.scan_trace``, resumed
        from the monitor's state, and keeps the state it returns, so
        ``step`` and ``feed`` calls may be mixed. Every row is checked
        before any state changes: a block raises the error of the first
        row ``step`` would reject, with that row's position as the error's
        ``row``, and consumes no row. With ``stop_on_alarm`` the scan stops
        at the first alarm; the rows after it are left unconsumed and get
        no result.
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
        x = np.asarray(rows, dtype=float)
        if x.shape == (0,):  # an empty sequence is a block of no rows
            x = x.reshape(0, model.raw_dim)
        elif x.ndim != 2 or x.shape[1] != model.raw_dim:  # checked even when it holds no row
            raise DimensionMismatch(f"expected raw vectors of dimension {model.raw_dim}, got shape {x.shape}")
        t_first = self._t_raw + 1
        if not x.shape[0]:
            none = np.empty(0, dtype=np.int64)
            return t_first, 0, np.empty(0), none, none.astype(bool), none
        state = self._stats.state
        short, z = _checked_projections(model, x, state, self._raw_history)
        stat, k, clamped, state = _kernel.scan_trace(
            z, model.train_sum, model.train_sumsq, model.m, model.window, model.p0,
            self._table.upto(model.m + state.t + z.shape[0]), VAR_FLOOR,
            model.threshold if stop_on_alarm else None, state=state,
        )
        # the tail is a view into the whole scanned block; a copy lets the block go
        self._stats.state = state._replace(tail=state.tail.copy())
        consumed = short + stat.shape[0]
        self._raw_history = _held_rows(self._raw_history, x[:consumed], model.lag)
        self._t_raw += consumed
        self.total_warnings += int(clamped.sum())
        argmax_k = np.where(k >= 0, k + model.lag, -1)
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
