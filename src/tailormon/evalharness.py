"""Delay/false-alarm experiments and the bivariate analytic checks.

A trial draws a training set under the null, fits the configured
detector, then monitors a stream that switches from the null to a
sampled post-change distribution at the change point kappa. Outcomes are
classified as false alarms (alarm at or before kappa), detections, or
censored runs (no alarm by the trial horizon). Grid runs share one
training set and one calibrated threshold per detector, since thresholds
are conditional on the exact training set.

A grid cell's trials run in groups (``run_prepared_trials``), a stretch
of steps at a time. In each stretch every trial still running draws its
rows from its own generator, the group's rows are checked and projected
as one stack, and the group is scanned side by side as one stacked
trace that resumes from where the last stretch left it, each trial
leaving the scan at its first alarm (``mixmonitor._stacked_crossings``).
A group stops once all of its trials have alarmed, so the rows after its
last alarm are never drawn. The group size comes from
``_kernel.stack_size``, the rule that also sizes calibration batches.
Every outcome is bit for bit that of the trial drawn whole and scanned
alone, so the rows depend neither on the grouping, nor on the
stretches, nor on the worker count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernel import ScanState, stack_size
from .calibrate import CalibrationConfig, calibrate_threshold, clopper_pearson, resolve_threads
from .changemodel import (
    CHANGE_TYPES,
    CORRELATION,
    MEAN,
    VARIANCE,
    ChangeDistributionSpec,
    ChangeScenario,
    PostChangeParams,
    apply_change,
    projection_sensitivities,
)
from .corrcore import CorrelationMatrix, eigensystem, estimate_training, random_correlation
from .errors import ConfigError, TooFewDetections
from .mixmonitor import (
    MonitorModel, _BartlettTable, _checked_projections, _held_rows, _stacked_crossings, build_monitor_model,
)
from .tailor import (
    identity_selection,
    max_variance_selection,
    min_variance_selection,
    tailor,
)

TPCA = "tpca"
MINPCA = "minpca"
MAXPCA = "maxpca"
MIXTURE = "mixture"
DETECTOR_KINDS = (TPCA, MINPCA, MAXPCA, MIXTURE)

# Raw steps of a trial group's first stretch; each later stretch is twice
# as long as the one before, up to TRIAL_STRETCH_MAX steps. Most trials of
# a change cell alarm within the first stretch or two, and a group is
# sized by its longest stretch, not by the horizon. The cap bounds what a
# trial costs past its alarm, since its rows are drawn, checked, projected
# and copied into the scan to the end of its stretch; 256 steps still
# spreads a stretch's fixed costs (a scan call, and a draw and a check per
# trial) over many steps. A longer horizon is cut into about
# TRIAL_LONG_STRETCHES stretches past the first few instead: each stretch
# of a trial multiplies a matrix the length of its whole chunk
# (``_chunk_rows``), so a trial that runs to the horizon (a null or
# censored one) pays that product a bounded number of times.
TRIAL_STRETCH_FIRST = 64
TRIAL_STRETCH_MAX = 256
TRIAL_LONG_STRETCHES = 8


def _stretch_ends(horizon: int) -> list[int]:
    """The raw step at which each stretch of a trial group ends.

    The stretches double from TRIAL_STRETCH_FIRST up to the larger of
    TRIAL_STRETCH_MAX and horizon // TRIAL_LONG_STRETCHES steps; a rest
    shorter than TRIAL_STRETCH_FIRST joins the stretch before it, since a
    stretch costs a scan call and a draw and a check per trial whatever
    its length, and null trials (most of a null cell's) run to the
    horizon. A horizon of at most 2 * TRIAL_STRETCH_FIRST - 1 steps is one
    stretch.
    """
    longest = max(TRIAL_STRETCH_MAX, horizon // TRIAL_LONG_STRETCHES)
    ends, end, size = [], 0, TRIAL_STRETCH_FIRST
    while end < horizon:
        end += size
        if horizon - end < TRIAL_STRETCH_FIRST:
            end = horizon
        ends.append(end)
        size = min(2 * size, longest)
    return ends


@dataclass(frozen=True)
class DetectorSpec:
    """Which detector to run and its method parameter.

    ``tpca`` tailors axes at the given cutoff (with ``draws`` Monte Carlo
    samples from ``change_spec``), ``minpca``/``maxpca`` monitor the
    ``n_axes`` least/most varying axes, and ``mixture`` monitors every
    standardized raw stream with prior ``p0``. Projection detectors use
    p0 = 1.
    """

    kind: str
    cutoff: float | None = None
    n_axes: int | None = None
    p0: float | None = None
    draws: int = 10_000
    change_spec: ChangeDistributionSpec | None = None

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ConfigError(f"detector kind must be one of {DETECTOR_KINDS}")
        if self.kind == TPCA and self.cutoff is None:
            raise ConfigError("tpca detector needs a cutoff")
        if self.kind in (MINPCA, MAXPCA) and not self.n_axes:
            raise ConfigError(f"{self.kind} detector needs n_axes")
        if self.kind == MIXTURE and self.p0 is None:
            raise ConfigError("mixture detector needs p0")

    @property
    def parameter(self) -> float:
        if self.kind == TPCA:
            return self.cutoff
        if self.kind == MIXTURE:
            return self.p0
        return self.n_axes

    def label(self) -> str:
        return f"{self.kind}({self.parameter})"


@dataclass(frozen=True)
class TrialOutcome:
    """Stopping time of one trial, classified against kappa and the horizon."""

    alarm_time: int | None
    kappa: int
    horizon: int

    def __post_init__(self):
        states = sum((self.false_alarm, self.detected, self.censored))
        if states != 1:
            raise ValueError("outcome must be exactly one of false alarm, detection, censored")

    @property
    def false_alarm(self) -> bool:
        return self.alarm_time is not None and self.alarm_time <= self.kappa

    @property
    def detected(self) -> bool:
        return self.alarm_time is not None and self.alarm_time > self.kappa

    @property
    def censored(self) -> bool:
        return self.alarm_time is None

    @property
    def delay(self) -> int | None:
        """Detection delay T - kappa; censored runs contribute the truncation value."""
        if self.detected:
            return self.alarm_time - self.kappa
        if self.censored:
            return self.horizon - self.kappa
        return None


def gaussian_rows(rng: np.random.Generator, n: int, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    return mean + rng.standard_normal((n, mean.shape[0])) @ chol.T


def build_detector_model(
    base: CorrelationMatrix,
    m: int,
    w: int,
    detector: DetectorSpec,
    seed,
) -> tuple[MonitorModel, np.ndarray]:
    """Draw a null training set and fit the detector's monitor model.

    Returns the model (threshold unset) and the raw training rows, which
    calibration needs. Deterministic in ``seed``.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    train_ss, tailor_ss = root.spawn(2)
    chol = np.linalg.cholesky(base.values)
    train = gaussian_rows(np.random.default_rng(train_ss), m, np.zeros(base.dim), chol)
    summary = estimate_training(train)
    p0 = 1.0
    if detector.kind == TPCA:
        spec = detector.change_spec if detector.change_spec is not None else ChangeDistributionSpec()
        selection = tailor(
            summary.corr, spec, detector.cutoff, detector.draws, np.random.default_rng(tailor_ss)
        )
    elif detector.kind == MINPCA:
        selection = min_variance_selection(eigensystem(summary.corr), detector.n_axes)
    elif detector.kind == MAXPCA:
        selection = max_variance_selection(eigensystem(summary.corr), detector.n_axes)
    else:
        selection = identity_selection(summary.dim)
        p0 = detector.p0
    model = build_monitor_model(summary, selection, train, p0=p0, window=w)
    return model, train


def _chunk_rows(rng, chunk: int, lo: int, hi: int, mean: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Rows lo..hi - 1 of ``gaussian_rows(rng, chunk, mean, chol)``, bit for bit, drawing only their normals.

    The generator's normals come in the same order however a draw is
    split. The product with the factor does not: BLAS picks its kernel
    by the shape of the call (one row, a small matrix, the thread
    count), and kernels sum in different orders. So a part of a chunk is
    multiplied as a matrix of the chunk's shape, its normals at their
    rows and zeros elsewhere: a row of the product reads no other row.
    """
    normals = np.zeros((chunk, mean.shape[0]))
    normals[lo:hi] = rng.standard_normal((hi - lo, mean.shape[0]))
    return mean + (normals @ chol.T)[lo:hi]


def _trial_rows(rng, start: int, end: int, kappa: int, horizon: int, null, post) -> np.ndarray:
    """Rows start..end - 1 of a trial's stream, drawn alone from the trial's generator.

    ``null`` and ``post`` are (mean, Cholesky factor) pairs, ``post``
    None for a null stream. A null stream drawn whole is one
    ``gaussian_rows`` chunk of ``horizon`` rows; a change stream is a
    chunk of ``kappa`` null rows, then one of ``horizon - kappa``
    post-change rows. Drawn stretch after stretch through here, from
    start 0 on, the stream is the same bit for bit (``_chunk_rows``).
    """
    if post is None:
        return _chunk_rows(rng, horizon, start, end, *null)
    cut = min(max(kappa, start), end)
    pieces = []
    if start < cut:
        pieces.append(_chunk_rows(rng, kappa, start, cut, *null))
    if cut < end:
        pieces.append(_chunk_rows(rng, horizon - kappa, cut - kappa, end - kappa, *post))
    return np.vstack(pieces) if len(pieces) > 1 else pieces[0]


def _group_outcomes(model: MonitorModel, group, kappa: int, horizon: int, null, table) -> list[TrialOutcome]:
    """The outcomes of a group of trials, each a (generator, post) pair as ``_trial_rows`` takes them.

    The group's streams are drawn, checked, projected and scanned a
    stretch of steps at a time (``_stretch_ends``), and only the trials
    that have not alarmed go on to the next. In a stretch each
    trial's rows are drawn, checked and projected alone, as a block that
    follows its running state (``_checked_projections``), and only the
    projections are kept; a lagged model carries each trial's last
    ``lag`` raw rows across. The group's projections are then scanned
    side by side from the stacked state the last stretch left
    (``_stacked_crossings``).
    """
    alarms = [None] * len(group)
    live = np.arange(len(group))  # the trials still running, in trial order
    state = ScanState.fresh(len(group), model.n_streams)
    history = [np.empty((0, model.raw_dim))] * len(group)  # each trial's last raw rows, up to lag
    start = 0
    for end in _stretch_ends(horizon):
        for i, g in enumerate(live.tolist()):
            rng, post = group[g]
            rows = _trial_rows(rng, start, end, kappa, horizon, null, post)
            short, zg = _checked_projections(model, rows, state.pick(i), history[g])
            if i == 0:
                z = np.empty((zg.shape[0], live.size, model.n_streams))
            z[:, i] = zg
            history[g] = _held_rows(history[g], rows, model.lag)
        firsts, state = _stacked_crossings(model, z, model.threshold, state, table)
        for g, i in zip(live.tolist(), firsts.tolist()):
            if i >= 0:
                alarms[g] = start + short + i + 1
        live = live[firsts < 0]
        if not live.size:
            break
        start = end
    return [TrialOutcome(alarm_time=a, kappa=kappa, horizon=horizon) for a in alarms]


def run_prepared_trials(
    model: MonitorModel, base: CorrelationMatrix, kappa: int, trials, horizon: int
) -> list[TrialOutcome]:
    """Monitor synthetic streams with an already fitted and thresholded model, a group of them at a time.

    ``trials`` yields each trial's (scenario, rng) in turn, the scenario
    None for a null stream; the rng draws the trial's stream, as
    ``run_prepared_trial`` does. A group of trials (``_kernel.stack_size``)
    is taken from ``trials``, and its streams are drawn, checked,
    projected and scanned side by side a stretch of steps at a time
    (``_group_outcomes``), each trial leaving at its first alarm: its rows
    past the stretch of that alarm are never drawn. The outcomes, in
    trial order, are bit for bit those of each trial's stream drawn whole
    and scanned alone (``Monitor.feed(stop_on_alarm=True)`` from a fresh
    monitor with the model's threshold).

    Errors: a group's post-change parameters are computed before any of
    its rows are drawn. Of the rows that are drawn, the first that fail a
    check raise their own error: groups in trial order, within a group
    stretch by stretch, and within a stretch trial by trial. A bad row
    past the stretch of its trial's alarm is never drawn, so it raises
    nothing; Gaussian rows hold none.
    """
    chol0 = np.linalg.cholesky(base.values)
    null = (np.zeros(base.dim), chol0)
    # a stretch is drawn, checked and projected trial by trial, and only its
    # projections are kept, so a group holds nothing more while it is prepared
    ends = _stretch_ends(horizon)
    longest = max((b - a for a, b in zip([0, *ends], ends)), default=1)
    size = stack_size(model.n_streams, model.window, longest, 0)
    table = _BartlettTable()
    outcomes: list[TrialOutcome] = []
    trials = iter(trials)
    while group := list(itertools.islice(trials, size)):
        prepared = []
        for scenario, rng in group:
            if scenario is None:
                prepared.append((rng, None))
            else:
                post = apply_change(base, scenario)
                prepared.append((rng, (post.mean, np.linalg.cholesky(post.cov))))
        outcomes += _group_outcomes(model, prepared, kappa, horizon, null, table)
    return outcomes


def run_prepared_trial(
    model: MonitorModel,
    base: CorrelationMatrix,
    kappa: int,
    scenario: ChangeScenario | None,
    horizon: int,
    rng: np.random.Generator,
) -> TrialOutcome:
    """Monitor one synthetic stream with an already fitted and thresholded model.

    The stream is drawn and scanned a stretch at a time up to its first
    alarm; the alarm time is the first step whose statistic reaches the
    threshold, as ``Monitor.run`` of the stream drawn whole would report
    it. This is the one-trial case of ``run_prepared_trials``.
    """
    return run_prepared_trials(model, base, kappa, [(scenario, rng)], horizon)[0]


@dataclass(frozen=True)
class EddEstimate:
    mean: float
    ci: tuple[float, float]
    n_detected: int
    n_censored: int
    n_false_alarm: int


def estimate_edd(outcomes, min_detections: int = 30) -> EddEstimate:
    """Conditional mean detection delay with a 95% normal CI.

    Averages T - kappa over trials that alarm after kappa; censored runs
    contribute their truncation value (and are counted separately), false
    alarms are excluded per the conditional definition.
    """
    detected = [o for o in outcomes if o.detected]
    censored = [o for o in outcomes if o.censored]
    false = [o for o in outcomes if o.false_alarm]
    if len(detected) < min_detections:
        raise TooFewDetections(f"only {len(detected)} detections, need {min_detections}")
    if not detected and not censored:
        raise TooFewDetections("no trials survived past the change point")
    delays = np.array([o.delay for o in detected] + [o.delay for o in censored], dtype=float)
    mean = float(delays.mean())
    half = 1.96 * float(delays.std(ddof=1)) / math.sqrt(delays.size) if delays.size > 1 else 0.0
    return EddEstimate(
        mean=mean,
        ci=(mean - half, mean + half),
        n_detected=len(detected),
        n_censored=len(censored),
        n_false_alarm=len(false),
    )


@dataclass(frozen=True)
class PfaEstimate:
    proportion: float
    ci: tuple[float, float]
    n_alarms: int
    n_trials: int


def estimate_pfa(outcomes, n: int, min_trials: int = 100) -> PfaEstimate:
    """Fraction of null runs alarming by step n, with a 95% Clopper-Pearson CI."""
    outcomes = list(outcomes)
    if len(outcomes) < min_trials:
        raise ConfigError(f"need at least {min_trials} replicates, got {len(outcomes)}")
    hits = sum(1 for o in outcomes if o.alarm_time is not None and o.alarm_time <= n)
    total = len(outcomes)
    return PfaEstimate(proportion=hits / total, ci=clopper_pearson(hits, total), n_alarms=hits, n_trials=total)


# ---------------------------------------------------------------------------
# Bivariate analytic verification
# ---------------------------------------------------------------------------

_MEAN_GRID = (-1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5)
_VAR_EQUAL_GRID = (0.3, 0.5, 0.8, 1.3, 1.7, 2.5, 3.3)
_VAR_SINGLE_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 1.25, 1.5, 2.0, 3.0)
_COR_GRID = (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.25, 1.5, 2.0)
_EQUAL_TOL = 1e-12


def _sensitivity_pair(rho: float, mu1: float, mu2: float, a11: float, a22: float, a12: float):
    """(H_top, H_bottom) for an explicit bivariate change.

    The post-change covariance is [[a11^2, a11*a22*a12*rho], [., a22^2]];
    sensitivities come from the projection machinery on the explicit 2x2
    matrices, sorted so index 0 is the most varying axis.
    """
    base = CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))
    cov = np.array(
        [
            [a11 * a11, a11 * a22 * a12 * rho],
            [a11 * a22 * a12 * rho, a22 * a22],
        ]
    )
    post = PostChangeParams(mean=np.array([mu1, mu2]), cov=cov)
    h = projection_sensitivities(eigensystem(base), post)
    return float(h[0]), float(h[1])


@dataclass
class _PropTally:
    checked: int = 0
    excluded: int = 0
    violations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"checked": self.checked, "excluded": self.excluded, "violations": self.violations}


def _excluded_rho(rho: float, boundary_tol: float) -> bool:
    return abs(rho) < boundary_tol or abs(rho) >= 1.0 - boundary_tol


def verify_bivariate_propositions(
    resolution: float = 0.05,
    boundary_tol: float = 1e-6,
    rho_values=None,
) -> dict:
    """Check the four analytic bivariate orderings on a grid.

    For each grid point the sensitivities of the two projections are
    computed numerically and their ordering is compared with the analytic
    prediction:

    * mean change: H_bottom > H_top iff (mu1 - mu2)^2 > mu1*mu2*(2/|rho| - 2)
      (the constant follows from expanding
      (1+|rho|)(mu1-mu2)^2 > (1-|rho|)(mu1+mu2)^2);
    * both variances scaled equally: H_bottom == H_top;
    * one variance scaled by a: H_bottom > H_top for a > 1; for a < 1 the
      ordering flips except when |rho| > sqrt(3)/2 and a < sqrt(4 rho^2 - 3);
    * correlation scaled by a > -1: H_bottom > H_top.

    Negative correlations map to the positive case by flipping the sign of
    the second coordinate, which negates mu2 and leaves the covariance
    predictions unchanged; the mean prediction is evaluated accordingly.

    Grid points within ``boundary_tol`` of a region boundary are excluded
    and counted; so is a rho within ``boundary_tol`` of 0 or of +-1, or
    beyond. Violations are reported, not raised. A resolution that is not
    finite or lies outside (0, 0.95], and ``rho_values`` that hold a
    non-finite value or no rho that is not excluded, are a ConfigError:
    the first would leave nothing to check, the others check nonsense or
    nothing.
    """
    if not 0.0 < resolution <= 0.95:  # false for nan too
        raise ConfigError(f"resolution must lie in (0, 0.95], got {resolution}")
    if rho_values is not None:
        if not all(math.isfinite(rho) for rho in rho_values):
            raise ConfigError("rho_values must be finite")
        if all(_excluded_rho(float(rho), boundary_tol) for rho in rho_values):
            raise ConfigError(f"rho_values must hold a rho with {boundary_tol} <= |rho| < 1 - {boundary_tol}")
    else:
        pos = np.arange(resolution, 0.95 + resolution / 2, resolution)
        pos = pos[pos <= 0.95 + 1e-12]
        rho_values = np.concatenate([-pos[::-1], pos])
    tallies = {name: _PropTally() for name in ("mean", "equal_variances", "one_variance", "correlation")}
    sqrt3_2 = math.sqrt(3.0) / 2.0

    for rho in rho_values:
        rho = float(rho)
        if _excluded_rho(rho, boundary_tol):
            for tally in tallies.values():
                tally.excluded += 1
            continue
        ar = abs(rho)

        tally = tallies["mean"]
        sign = 1.0 if rho > 0.0 else -1.0
        for mu1 in _MEAN_GRID:
            for mu2 in _MEAN_GRID:
                if mu1 == 0.0 and mu2 == 0.0:
                    continue
                lhs = (mu1 - sign * mu2) ** 2
                rhs = sign * mu1 * mu2 * (2.0 / ar - 2.0)
                if abs(lhs - rhs) <= boundary_tol * max(1.0, abs(rhs)):
                    tally.excluded += 1
                    continue
                h1, h2 = _sensitivity_pair(rho, mu1, mu2, 1.0, 1.0, 1.0)
                tally.checked += 1
                if (h2 > h1) != (lhs > rhs):
                    tally.violations.append({"rho": rho, "mu1": mu1, "mu2": mu2, "H_top": h1, "H_bottom": h2})

        tally = tallies["equal_variances"]
        for a in _VAR_EQUAL_GRID:
            h1, h2 = _sensitivity_pair(rho, 0.0, 0.0, a, a, 1.0)
            tally.checked += 1
            if abs(h2 - h1) >= _EQUAL_TOL:
                tally.violations.append({"rho": rho, "a": a, "H_top": h1, "H_bottom": h2})

        tally = tallies["one_variance"]
        for a in _VAR_SINGLE_GRID:
            if abs(a - 1.0) <= boundary_tol or abs(ar - sqrt3_2) <= boundary_tol:
                tally.excluded += 1
                continue
            exceptional = False
            if a < 1.0 and ar > sqrt3_2:
                a0 = math.sqrt(4.0 * rho * rho - 3.0)
                if abs(a - a0) <= boundary_tol:
                    tally.excluded += 1
                    continue
                exceptional = a < a0
            expect_bottom = a > 1.0 or exceptional
            for a11, a22 in ((a, 1.0), (1.0, a)):
                h1, h2 = _sensitivity_pair(rho, 0.0, 0.0, a11, a22, 1.0)
                tally.checked += 1
                if (h2 > h1) != expect_bottom:
                    tally.violations.append(
                        {"rho": rho, "a11": a11, "a22": a22, "H_top": h1, "H_bottom": h2}
                    )

        tally = tallies["correlation"]
        for a in _COR_GRID:
            if abs(a - 1.0) <= boundary_tol or abs(a * rho) >= 0.99:
                tally.excluded += 1
                continue
            h1, h2 = _sensitivity_pair(rho, 0.0, 0.0, 1.0, 1.0, a)
            tally.checked += 1
            if not h2 > h1:
                tally.violations.append({"rho": rho, "a": a, "H_top": h1, "H_bottom": h2})

    total = sum(len(t.violations) for t in tallies.values())
    return {
        "resolution": resolution,
        "boundary_tol": boundary_tol,
        "rho_values": [float(r) for r in rho_values],
        "propositions": {name: tally.to_dict() for name, tally in tallies.items()},
        "total_violations": total,
    }


# ---------------------------------------------------------------------------
# Grid orchestration
# ---------------------------------------------------------------------------


def scenario_from_cell(ctype: str, sparsity: int, size: float, dim: int, rng: np.random.Generator) -> ChangeScenario:
    """Fixed-size scenario with a uniformly re-randomized affected set."""
    if ctype not in CHANGE_TYPES:
        raise ConfigError(f"unknown change type {ctype!r}")
    if not 1 <= sparsity <= dim:
        raise ConfigError("sparsity must lie in [1, dim]")
    if ctype == CORRELATION and sparsity < 2:
        # one affected variable has no pair to change: the cell would run null streams
        raise ConfigError("a correlation change needs sparsity >= 2")
    affected = tuple(int(i) for i in np.sort(rng.choice(dim, size=sparsity, replace=False)))
    if ctype == MEAN:
        return ChangeScenario(ctype=ctype, affected=affected, mean_sizes=(float(size),) * sparsity)
    if ctype == VARIANCE:
        return ChangeScenario(ctype=ctype, affected=affected, sdev_factors=(float(size),) * sparsity)
    pairs = {(d, i): float(size) for di, d in enumerate(affected) for i in affected[di + 1:]}
    return ChangeScenario(ctype=ctype, affected=affected, corr_factors=pairs)


def _detector_from_dict(doc: dict) -> tuple[DetectorSpec, float | None]:
    kwargs = dict(doc)
    # a fixed threshold skips calibration (replays, sanity grids)
    override = kwargs.pop("threshold", None)
    if "change_spec" in kwargs and kwargs["change_spec"] is not None:
        kwargs["change_spec"] = ChangeDistributionSpec.from_dict(kwargs["change_spec"])
    return DetectorSpec(**kwargs), (float(override) if override is not None else None)


def simulate_grid(cfg: dict, *, threads: int | None = None, progress=None) -> tuple[list[dict], list[dict]]:
    """Run a grid of (detector, change-cell) experiments.

    Returns tidy result rows and a manifest of failed cells (empty on a
    clean run); on a cell failure the remaining cells still run. Shares
    one training set, selection and calibrated threshold per detector.
    Raises ConfigError before any detector is built when
    ``trial_replicates`` or ``horizon_mult`` is below 1, or a change
    cell's ``kappa`` lies outside [0, horizon).
    """
    threads = resolve_threads(threads)
    seed = int(cfg.get("seed", 0))
    dim = int(cfg["dim"])
    m = int(cfg["m"])
    n = int(cfg["n"])
    w = int(cfg.get("window", 200))
    horizon_mult = int(cfg.get("horizon_mult", 10))
    horizon = horizon_mult * n
    replicates = int(cfg.get("trial_replicates", 500))
    cells = cfg["cells"]
    if replicates < 1 or horizon_mult < 1:
        raise ConfigError(f"trial_replicates and horizon_mult must be at least 1, got {replicates} and {horizon_mult}")
    kappas = [int(c.get("kappa", 0)) for c in cells if isinstance(c, dict) and c.get("ctype", "h0") != "h0"]
    if not all(0 <= kappa < horizon for kappa in kappas):
        raise ConfigError(f"every change cell's kappa must lie in [0, horizon = {horizon}), got {kappas}")

    root = np.random.SeedSequence(seed)
    base_ss, detector_root = root.spawn(2)

    base_doc = cfg.get("base", {"kind": "random", "alpha_d": 1.0})
    if base_doc["kind"] == "random":
        base = random_correlation(dim, float(base_doc.get("alpha_d", 1.0)), np.random.default_rng(base_ss))
    elif base_doc["kind"] == "identity":
        base = CorrelationMatrix(np.eye(dim))
    elif base_doc["kind"] == "matrix":
        base = CorrelationMatrix(np.asarray(base_doc["values"], dtype=float))
    else:
        raise ConfigError(f"unknown base kind {base_doc['kind']!r}")

    calib = CalibrationConfig(
        alpha=float(cfg["alpha"]),
        n=n,
        confidence=float(cfg["confidence"]),
        replicates=int(cfg.get("replicates_boot", 2000)),
        mode=cfg.get("mode", "parametric_normal"),
        block_len=cfg.get("block_len"),
    )

    detectors = [_detector_from_dict(d) for d in cfg["detectors"]]
    rows: list[dict] = []
    manifest: list[dict] = []

    detector_seeds = detector_root.spawn(len(detectors))
    for d_idx, (det, override) in enumerate(detectors):
        det_ss = detector_seeds[d_idx]
        model, train = build_detector_model(base, m, w, det, det_ss)
        if override is None:
            calib_rng = np.random.default_rng(det_ss.spawn(1)[0])
            result = calibrate_threshold(model, train, calib, calib_rng, threads=threads)
            threshold = result.threshold
        else:
            threshold = override
        model = model.with_threshold(threshold)
        for c_idx, cell in enumerate(cells):
            try:
                row = _run_cell(model, base, det, cell, n, horizon, replicates, seed, c_idx, threshold)
                rows.append(row)
            except Exception as exc:  # record and continue with remaining cells
                manifest.append({"detector": det.label(), "cell": cell, "error": f"{type(exc).__name__}: {exc}"})
            if progress is not None:
                progress(det.label(), c_idx, len(cells))
    return rows, manifest


def _run_cell(model, base, det, cell, n, horizon, replicates, grid_seed, c_idx, threshold) -> dict:
    ctype = cell.get("ctype", "h0")
    outcomes = _cell_outcomes(model, base, cell, n, horizon, replicates, grid_seed, c_idx)
    row = {
        "detector": det.kind,
        "parameter": det.parameter,
        "change_type": ctype,
        "sparsity": cell.get("sparsity"),
        "p_affected": (cell.get("sparsity") / base.dim) if cell.get("sparsity") else None,
        "size": cell.get("size"),
        "kappa": cell.get("kappa", 0),
        "threshold": threshold,
        "replicates": replicates,
    }
    if ctype == "h0":
        pfa = estimate_pfa(outcomes, n, min_trials=min(100, replicates))
        row.update(
            {
                "edd": None,
                "edd_lo": None,
                "edd_hi": None,
                "n_detected": None,
                "n_censored": None,
                "n_false_alarm": None,
                "pfa": pfa.proportion,
                "pfa_lo": pfa.ci[0],
                "pfa_hi": pfa.ci[1],
            }
        )
    else:
        # all-censored cells still report the truncation-dominated delay
        edd = estimate_edd(outcomes, min_detections=0)
        row.update(
            {
                "edd": edd.mean,
                "edd_lo": edd.ci[0],
                "edd_hi": edd.ci[1],
                "n_detected": edd.n_detected,
                "n_censored": edd.n_censored,
                "n_false_alarm": edd.n_false_alarm,
                "pfa": None,
                "pfa_lo": None,
                "pfa_hi": None,
            }
        )
    return row


def _cell_outcomes(model, base, cell, n, horizon, replicates, grid_seed, c_idx) -> list[TrialOutcome]:
    ctype = cell.get("ctype", "h0")

    def trials():
        for rep in range(replicates):
            # keyed on (grid seed, cell, replicate) only, so every detector is
            # evaluated on the same simulated streams
            rng = np.random.default_rng(np.random.SeedSequence(entropy=[grid_seed, c_idx, rep]))
            if ctype == "h0":
                yield None, rng
            else:
                yield scenario_from_cell(ctype, int(cell["sparsity"]), float(cell["size"]), base.dim, rng), rng

    if ctype == "h0":
        return run_prepared_trials(model, base, 0, trials(), n)
    return run_prepared_trials(model, base, int(cell.get("kappa", 0)), trials(), horizon)
