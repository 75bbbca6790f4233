"""Delay/false-alarm experiments and the bivariate analytic checks.

A trial draws a training set under the null, fits the configured
detector, then monitors a stream that switches from the null to a
sampled post-change distribution at the change point kappa. Outcomes are
classified as false alarms (alarm at or before kappa), detections, or
censored runs (no alarm by the trial horizon). Grid runs share one
training set and one calibrated threshold per detector, since thresholds
are conditional on the exact training set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibrate import CalibrationConfig, calibrate_threshold, clopper_pearson, resolve_threads
from .changemodel import (
    CHANGE_TYPES,
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
from .mixmonitor import MonitorModel, build_monitor_model, trace_stats
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


def run_prepared_trial(
    model: MonitorModel,
    base: CorrelationMatrix,
    kappa: int,
    scenario: ChangeScenario | None,
    horizon: int,
    rng: np.random.Generator,
) -> TrialOutcome:
    """Monitor one synthetic stream with an already fitted and thresholded model.

    The stream is drawn in full up front, so it is scanned as one trace;
    the alarm time is the first step whose statistic reaches the
    threshold, as ``Monitor.run`` would report it.
    """
    chol0 = np.linalg.cholesky(base.values)
    zeros = np.zeros(base.dim)
    if scenario is None:
        stream = gaussian_rows(rng, horizon, zeros, chol0)
    else:
        post = apply_change(base, scenario)
        stream = np.vstack(
            [
                gaussian_rows(rng, kappa, zeros, chol0),
                gaussian_rows(rng, horizon - kappa, post.mean, np.linalg.cholesky(post.cov)),
            ]
        )
    stat, _ = trace_stats(model, stream, model.threshold)
    hits = np.flatnonzero(stat >= model.threshold)
    alarm_time = int(hits[0]) + 1 if hits.size else None
    return TrialOutcome(alarm_time=alarm_time, kappa=kappa, horizon=horizon)


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
    and counted. Violations are reported, not raised.
    """
    if rho_values is None:
        pos = np.arange(resolution, 0.95 + resolution / 2, resolution)
        pos = pos[pos <= 0.95 + 1e-12]
        rho_values = np.concatenate([-pos[::-1], pos])
    tallies = {name: _PropTally() for name in ("mean", "equal_variances", "one_variance", "correlation")}
    sqrt3_2 = math.sqrt(3.0) / 2.0

    for rho in rho_values:
        rho = float(rho)
        if abs(rho) < boundary_tol or abs(rho) >= 1.0 - boundary_tol:
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
    """
    threads = resolve_threads(threads)
    seed = int(cfg.get("seed", 0))
    dim = int(cfg["dim"])
    m = int(cfg["m"])
    n = int(cfg["n"])
    w = int(cfg.get("window", 200))
    horizon = int(cfg.get("horizon_mult", 10)) * n
    replicates = int(cfg.get("trial_replicates", 500))

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
    cells = cfg["cells"]
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
    kappa = int(cell.get("kappa", 0))
    outcomes = []
    for rep in range(replicates):
        # keyed on (grid seed, cell, replicate) only, so every detector is
        # evaluated on the same simulated streams
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[grid_seed, c_idx, rep]))
        if ctype == "h0":
            outcome = run_prepared_trial(model, base, 0, None, n, rng)
        else:
            scenario = scenario_from_cell(ctype, int(cell["sparsity"]), float(cell["size"]), base.dim, rng)
            outcome = run_prepared_trial(model, base, kappa, scenario, horizon, rng)
        outcomes.append(outcome)
    return outcomes
