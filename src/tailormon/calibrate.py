"""Bootstrap calibration of the alarm threshold.

The threshold is chosen so that the probability of any alarm within a
horizon of n monitored steps is at most alpha, at a one-sided binomial
confidence level, without a validation set. Every bootstrap replicate
draws a synthetic training set, re-estimates the training summary and
eigensystem (capturing estimation uncertainty), reuses the original axis
indices, and records the maximum statistic of a synthetic monitoring run;
a single pass over replicates therefore serves every candidate threshold,
and the threshold is read off as a confidence-adjusted upper quantile of
the recorded maxima. The synthetic monitoring rows are drawn up front,
so they are scanned as one trace rather than step by step.

Replicates are drawn one at a time, each from its own seed stream, in
replicate order, and handled in batches. A batch is prepared as one
stack: re-estimated, decomposed, built and checked together
(``_prepared``), then scanned side by side as one stacked trace scan
(``_stacked_maxima``). Its size comes from the rule that also sizes the
groups of simulated trials (``_kernel.stack_size``): as many replicates
as fill one step of a scan block, and no more than fill a few blocks
with what a replicate holds at its largest stage. A batch is prepared
all or nothing: when a check fails any of its replicates, the same drawn
rows are prepared again one replicate at a time, so the first failing
replicate raises the error it raises alone, before any later batch is
drawn. Each maximum is bit for bit what the replicate's own re-fit and scan
(``replicate_maximum``, ``Monitor.step``) give, so the result depends
neither on the batching nor on the worker count; a worker pool maps
batches of seeds.

Thresholds are conditional on the exact training set, window and axis
set; recalibrate whenever any of those change.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import beta as beta_dist

from ._kernel import stack_size
from .corrcore import (
    _correlation_error,
    _correlation_faults,
    _eigen_stack,
    _fault_codes,
    _raise_first,
    _spectrum_error,
    _spectrum_faults,
    _training_moments,
    estimate_training,
)
from .errors import ConfigError, DimensionMismatch, InsufficientReplicates
from .mixmonitor import (
    MonitorModel,
    _checked_projections,
    _lag_extend_stack,
    _projectors,
    _stacked_maxima,
    _training_sums,
)

PARAMETRIC = "parametric_normal"
BLOCK = "block_bootstrap"
MODES = (PARAMETRIC, BLOCK)


@dataclass(frozen=True)
class CalibrationConfig:
    """Target false-alarm rate and bootstrap settings.

    ``alpha`` is the admissible probability of a false alarm within the
    horizon ``n`` (monitored steps); ``confidence`` is the one-sided
    binomial confidence at which the exceedance proportion must stay at
    or below alpha. ``block_len`` of None resolves to max(25, 2*lag + 2)
    in block mode.
    """

    alpha: float
    n: int
    confidence: float
    replicates: int
    mode: str = PARAMETRIC
    block_len: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie strictly inside (0, 1)")
        if self.n < 2:
            raise ConfigError("horizon n must be at least 2")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError("confidence must lie strictly inside (0, 1)")
        if self.alpha * self.replicates < 5.0:
            raise ConfigError("alpha * replicates must be at least 5 for a usable quantile")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.block_len is not None and self.block_len < 1:
            raise ConfigError("block_len must be positive")


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated threshold plus the replicate maxima that produced it."""

    threshold: float
    pfa_estimate: float
    pfa_ci: tuple[float, float]
    exceedances: int
    replicate_maxima: np.ndarray
    mode: str
    block_len: int | None
    config: CalibrationConfig

    def __post_init__(self):
        maxima = np.asarray(self.replicate_maxima, dtype=float).copy()
        maxima.setflags(write=False)
        object.__setattr__(self, "replicate_maxima", maxima)


def block_bootstrap_sample(training, block_len: int, out_len: int, rng: np.random.Generator) -> np.ndarray:
    """Moving-block resample of the training rows.

    Uniformly chosen contiguous blocks (no wrap-around) are concatenated
    and truncated to ``out_len`` rows. ``block_len = 1`` is iid row
    resampling; ``block_len = m`` cycles the full training set.
    """
    x = np.asarray(training, dtype=float)
    if x.ndim != 2:
        raise DimensionMismatch("training data must be 2-d")
    m = x.shape[0]
    if not 1 <= block_len <= m:
        raise ConfigError(f"block_len must lie in [1, {m}]")
    n_blocks = -(-out_len // block_len)
    starts = rng.integers(0, m - block_len + 1, size=n_blocks)
    rows = (starts[:, None] + np.arange(block_len)[None, :]).reshape(-1)[:out_len]
    return x[rows]


def _stack_prepared(model: MonitorModel, train, mon):
    """A batch of replicates, ready to scan: their training sums and the checked projections of their monitoring rows.

    ``train`` (S, m_raw, D_raw) and ``mon`` (S, n_raw, D_raw) hold the
    synthetic rows of S replicates. Each replicate's model is re-estimated
    from its training rows and keeps the original axis indices; it is
    built, and its monitoring rows checked and projected, as
    ``build_monitor_model`` and ``Monitor.feed`` would one replicate
    alone, bit for bit, but on stacks. One test differs: for a selection
    of eigen-axes the positive-definiteness test reads the smallest
    eigenvalue of the eigensystem the replicate needs anyway, where the
    one-model path decomposes the matrix a second time (``eigvalsh``); the
    two can differ in the last bits, so a verdict can differ only at the
    floor. Returns (train_sum, train_sumsq, z), (S, J), (S, J) and
    (S, n, J). Each check raises the error of the first replicate that
    fails it, which for S = 1 is the replicate's own.
    """
    lag = model.lag
    for rows in (train, mon):
        if rows.ndim != 3 or rows.shape[2] != model.raw_dim:
            raise DimensionMismatch(f"expected raw vectors of dimension {model.raw_dim}, got shape {rows.shape[1:]}")
    s = len(train)
    centered = _lag_extend_stack(train, lag)
    m = centered.shape[1]
    mean, sdev, corr = _training_moments(centered)  # centres it in place
    if model.selection.identity:
        _raise_first(_correlation_faults(corr)[0], _correlation_error)
        d = model.dim
        lam, vectors = np.ones((s, d)), np.broadcast_to(np.eye(d), (s, d, d))
    else:
        # one decomposition per replicate: eigh runs once the entries are
        # known to be finite, and the positive-definiteness test reads its
        # smallest eigenvalue rather than a second decomposition's
        _raise_first(_fault_codes([~np.isfinite(corr).all(axis=(1, 2))]), _correlation_error)
        lam, vectors = _eigen_stack(corr)
        _raise_first(_correlation_faults(corr, lam[:, -1])[0], _correlation_error)
        _raise_first(_spectrum_faults(lam, vectors), _spectrum_error)
        idx = np.asarray(model.selection.indices)
        lam, vectors = lam[:, idx], vectors[:, :, idx]
    projector = _projectors(vectors, sdev, lam)
    train_sum, train_sumsq = _training_sums(centered, projector)[1:]
    del centered  # the stack's largest array, no longer needed
    # from a fresh state: no raw row held, and running sums of squares of 0
    _, z = _checked_projections(mon, mon[:, :0], lag, mean, projector, train_sumsq, m)
    return train_sum, train_sumsq, z


def _prepared(model: MonitorModel, train, mon):
    """``_stack_prepared`` of a batch, all or nothing.

    When a check fails the batch, its replicates are prepared again one
    at a time, in order, from the same rows, so the first failing
    replicate raises exactly the error it raises alone.
    """
    try:
        return _stack_prepared(model, train, mon)
    except Exception as exc:
        if len(train) == 1:
            raise
        error = exc
    for i in range(len(train)):
        _stack_prepared(model, train[i:i + 1], mon[i:i + 1])
    raise error


def replicate_maximum(model: MonitorModel, train_synth, monitor_synth) -> float:
    """Maximum statistic of one null replicate.

    Re-estimates the training summary and eigensystem from the synthetic
    training rows, keeps the original axis indices, and scans the
    synthetic monitoring rows as one trace, returning the largest
    statistic over all steps and candidates. ``calibrate_threshold``
    prepares batches of replicates as stacks and scans each batch side by
    side; this is the one-replicate case, and each replicate's maximum is
    the same bit for bit either way.
    """
    train = np.asarray(train_synth, dtype=float)
    prepared = _prepared(model, train[None], np.asarray(monitor_synth, dtype=float)[None])
    return float(_stacked_maxima(*prepared, train.shape[0] - model.lag, model.window, model.p0)[0])


def threshold_from_maxima(maxima, alpha: float, confidence: float) -> tuple[float, int]:
    """Smallest threshold whose exceedance stays at or below alpha with confidence.

    Finds the largest exceedance count c whose one-sided upper confidence
    bound (Clopper-Pearson) is at most alpha, and places the threshold
    between the c-th and (c+1)-th largest maxima. Raises
    InsufficientReplicates when even one exceedance is too many, i.e. the
    threshold would have to sit at or above the sample maximum.

    The fresh false-alarm rate of the returned threshold therefore centres
    near c/R (R replicates), below alpha; only its upper confidence bound
    sits at alpha. For iid continuous maxima the exceedance probability of
    the (c+1)-th largest maximum is Beta(c+1, R-c), and that of the c-th
    largest is Beta(c, R-c+1); the threshold's exceedance probability
    lies between the two.
    """
    maxima = np.sort(np.asarray(maxima, dtype=float))[::-1]
    n = maxima.shape[0]
    counts = np.arange(0, n)
    upper = beta_dist.ppf(confidence, counts + 1, n - counts)
    admissible = np.nonzero(upper <= alpha)[0]
    if admissible.size == 0 or admissible.max() < 1:
        raise InsufficientReplicates(
            "confidence-adjusted quantile falls at the sample maximum; increase replicates or alpha"
        )
    c = int(admissible.max())
    b = 0.5 * (maxima[c - 1] + maxima[c])
    return float(b), int(np.sum(maxima >= b))


def _parametric_draw(mean, chol, seed_seq, train, mon):
    """Draw a replicate's raw training and monitoring rows into ``train`` and ``mon``."""
    rng = np.random.default_rng(seed_seq)
    m_raw = train.shape[0]
    draws = rng.standard_normal((m_raw + mon.shape[0], mean.shape[0])) @ chol.T
    np.add(mean, draws[:m_raw], out=train)
    np.add(mean, draws[m_raw:], out=mon)


def _block_draw(training_raw, block_len, seed_seq, train, mon):
    """Resample a replicate's raw training and monitoring rows into ``train`` and ``mon``."""
    rng = np.random.default_rng(seed_seq)
    train[...] = block_bootstrap_sample(training_raw, block_len, train.shape[0], rng)
    mon[...] = block_bootstrap_sample(training_raw, block_len, mon.shape[0], rng)


def _batch_maxima(model, draw, shared, plan, seeds) -> np.ndarray:
    """The maxima of the replicates of ``seeds``, in seed order.

    ``plan`` is (m_raw, n_raw, batch): the replicas' raw training and
    monitoring lengths, and how many replicates are drawn, prepared as one
    stack and scanned side by side. ``draw(*shared, seed, train, mon)``
    writes a replicate's raw rows into its slots of the batch's arrays. A
    batch is drawn and prepared before the next is drawn, so the first
    failing replicate raises its own error before any later batch is
    drawn.
    """
    m_raw, n_raw, batch = plan
    maxima = []
    for start in range(0, len(seeds), batch):
        chunk = seeds[start:start + batch]
        train = np.empty((len(chunk), m_raw, model.raw_dim))
        mon = np.empty((len(chunk), n_raw, model.raw_dim))
        for i, s in enumerate(chunk):
            draw(*shared, s, train[i], mon[i])
        prepared = _prepared(model, train, mon)
        del train, mon  # let the drawn rows go before the prepared ones are scanned
        maxima.append(_stacked_maxima(*prepared, m_raw - model.lag, model.window, model.p0))
    return np.concatenate(maxima)


# (model, draw function, its arguments before the seed, plan) in a pool worker
_worker_job = None


def _init_worker(job):
    """Pool initializer: receive the model and sampling inputs once per worker."""
    global _worker_job
    _worker_job = job


def _worker_batch(seeds):
    return _batch_maxima(*_worker_job, seeds)


def default_threads() -> int:
    """Worker count from ``TAILORMON_THREADS`` (default 1); a bad value is a ConfigError."""
    value = os.environ.get("TAILORMON_THREADS", "1")
    try:
        threads = int(value)
    except ValueError:
        raise ConfigError(f"TAILORMON_THREADS must be an integer, got {value!r}") from None
    if threads < 1:
        raise ConfigError(f"TAILORMON_THREADS must be at least 1, got {threads}")
    return threads


def resolve_threads(threads: int | None) -> int:
    """``threads``, or ``default_threads()`` when it is None; a count below 1 is a ConfigError."""
    if threads is None:
        threads = default_threads()
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    return threads


def clopper_pearson(hits: int, total: int) -> tuple[float, float]:
    """Two-sided 95% Clopper-Pearson interval for a binomial proportion."""
    lo = float(beta_dist.ppf(0.025, hits, total - hits + 1)) if hits > 0 else 0.0
    hi = float(beta_dist.ppf(0.975, hits + 1, total - hits)) if hits < total else 1.0
    return lo, hi


def calibrate_threshold(
    model: MonitorModel,
    training_raw,
    cfg: CalibrationConfig,
    rng: np.random.Generator | None = None,
    threads: int | None = None,
) -> CalibrationResult:
    """Calibrate the alarm threshold for a monitor model.

    ``training_raw`` are the raw (not lag-extended) training rows the
    model was fitted on; parametric mode draws replicates iid from the
    normal with the raw sample mean and reconstructed covariance, block
    mode resamples contiguous blocks of those rows. Replicates use
    independently spawned seed streams and are collected in replicate
    order, so the result is deterministic for a fixed config seed
    regardless of the worker count.
    """
    x = np.asarray(training_raw, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.raw_dim:
        raise DimensionMismatch("training data does not match the model's raw dimension")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    threads = resolve_threads(threads)
    m_raw = x.shape[0]
    n_raw = cfg.n + model.lag
    seeds = rng.bit_generator.seed_seq.spawn(cfg.replicates)

    block_len = cfg.block_len
    if cfg.mode == BLOCK:
        if block_len is None:
            block_len = max(25, 2 * model.lag + 2)
        if block_len > m_raw:
            raise ConfigError(f"block_len {block_len} exceeds the training length {m_raw}")
        job = (model, _block_draw, (x, block_len))
    else:
        summary = estimate_training(x)
        chol = np.linalg.cholesky(summary.covariance())
        job = (model, _parametric_draw, (summary.mean, chol))
        block_len = None

    # a replicate holds its drawn rows while it is prepared, and with them
    # first its lag-extended training rows and their projections, then its
    # lag-extended monitoring rows and theirs
    m = m_raw - model.lag
    held = (m_raw + n_raw) * model.raw_dim + max(m, cfg.n) * (model.dim + model.n_streams)
    batch = stack_size(model.n_streams, model.window, cfg.n, held)
    job = (*job, (m_raw, n_raw, batch))
    if threads > 1:
        # jobs carry only their seeds; the shared inputs reach each worker once
        batches = [seeds[i:i + batch] for i in range(0, cfg.replicates, batch)]
        with ProcessPoolExecutor(max_workers=threads, initializer=_init_worker, initargs=(job,)) as pool:
            maxima = np.concatenate(list(pool.map(_worker_batch, batches)))
    else:
        maxima = _batch_maxima(*job, seeds)

    b, exceed = threshold_from_maxima(maxima, cfg.alpha, cfg.confidence)
    return CalibrationResult(
        threshold=b,
        pfa_estimate=exceed / cfg.replicates,
        pfa_ci=clopper_pearson(exceed, cfg.replicates),
        exceedances=exceed,
        replicate_maxima=maxima,
        mode=cfg.mode,
        block_len=block_len,
        config=cfg,
    )
