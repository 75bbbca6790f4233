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
so each replicate scans them as one trace (``mixmonitor.trace_stats``)
rather than step by step; the statistics are the same bit for bit as
``Monitor.step``'s.

Thresholds are conditional on the exact training set, window and axis
set; recalibrate whenever any of those change.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.stats import beta as beta_dist

from .corrcore import estimate_training, eigensystem
from .errors import ConfigError, DimensionMismatch, InsufficientReplicates
from .mixmonitor import MonitorModel, build_monitor_model, lag_extend_matrix, trace_stats
from .tailor import identity_selection, manual_selection

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


def replicate_maximum(model: MonitorModel, train_synth, monitor_synth) -> float:
    """Maximum statistic of one null replicate.

    Re-estimates the training summary and eigensystem from the synthetic
    training rows, keeps the original axis indices, and scans the
    synthetic monitoring rows as one trace, returning the largest
    statistic over all steps and candidates.
    """
    lag = model.lag
    ext = lag_extend_matrix(np.asarray(train_synth, dtype=float), lag)
    summary = estimate_training(ext)
    if model.selection.identity:
        sel = identity_selection(summary.dim)
    else:
        sel = manual_selection(eigensystem(summary.corr), model.selection.indices)
    replica = build_monitor_model(
        summary,
        sel,
        ext,
        p0=model.p0,
        window=model.window,
        lag=lag,
        threshold=math.inf,
    )
    stat, _ = trace_stats(replica, monitor_synth)
    return float(stat.max(initial=-math.inf))


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


def _parametric_replicate(model, mean, chol, m_raw, n_raw, seed_seq):
    rng = np.random.default_rng(seed_seq)
    draws = mean + rng.standard_normal((m_raw + n_raw, mean.shape[0])) @ chol.T
    return replicate_maximum(model, draws[:m_raw], draws[m_raw:])


def _block_replicate(model, training_raw, block_len, m_raw, n_raw, seed_seq):
    rng = np.random.default_rng(seed_seq)
    train = block_bootstrap_sample(training_raw, block_len, m_raw, rng)
    mon = block_bootstrap_sample(training_raw, block_len, n_raw, rng)
    return replicate_maximum(model, train, mon)


# (replicate function, its arguments before the seed) in a pool worker
_worker_job = None


def _init_worker(replicate, shared):
    """Pool initializer: receive the model and sampling inputs once per worker."""
    global _worker_job
    _worker_job = (replicate, shared)


def _worker_replicate(seed_seq):
    replicate, shared = _worker_job
    return replicate(*shared, seed_seq)


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
        replicate = _block_replicate
        shared = (model, x, block_len, m_raw, n_raw)
    else:
        summary = estimate_training(x)
        chol = np.linalg.cholesky(summary.covariance())
        replicate = _parametric_replicate
        shared = (model, summary.mean, chol, m_raw, n_raw)
        block_len = None

    if threads > 1:
        # jobs carry only their seed; the shared inputs reach each worker once
        with ProcessPoolExecutor(max_workers=threads, initializer=_init_worker, initargs=(replicate, shared)) as pool:
            maxima = np.fromiter(
                pool.map(_worker_replicate, seeds, chunksize=max(1, cfg.replicates // (8 * threads))),
                dtype=float,
                count=cfg.replicates,
            )
    else:
        maxima = np.fromiter((replicate(*shared, s) for s in seeds), dtype=float, count=cfg.replicates)

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
