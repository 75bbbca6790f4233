import math
from dataclasses import dataclass

import numpy as np
import pytest

from tailormon import (
    ChangeScenario,
    ConfigError,
    CorrelationMatrix,
    DetectorSpec,
    PostChangeParams,
    TooFewDetections,
    TrialOutcome,
    eigensystem,
    estimate_edd,
    estimate_pfa,
    projection_sensitivities,
    random_correlation,
    simulate_grid,
    verify_bivariate_propositions,
)
from tailormon.evalharness import (
    build_detector_model,
    run_prepared_trial,
    scenario_from_cell,
)


@dataclass(frozen=True)
class TrialSpec:
    """One self-contained monitoring trial: training, detector, change scenario, seed.

    ``scenario`` of None runs under the null throughout. ``horizon`` of
    None extends the run to 10 * n steps, since delays of hard scenarios
    exceed the calibration horizon.
    """

    base: CorrelationMatrix
    m: int
    n: int
    w: int
    kappa: int
    detector: DetectorSpec
    scenario: ChangeScenario | None
    seed: int
    horizon: int | None = None

    def __post_init__(self):
        if self.kappa < 0:
            raise ConfigError("kappa must be non-negative")
        if self.scenario is not None and self.kappa >= self.n:
            raise ConfigError("kappa must precede the nominal horizon n for change trials")

    @property
    def resolved_horizon(self) -> int:
        return self.horizon if self.horizon is not None else 10 * self.n


def run_trial(spec: TrialSpec, threshold: float) -> TrialOutcome:
    """Trial that rebuilds its detector from the trial seed.

    The training child seed is part of ``spec.seed``, so the supplied
    threshold must come from a calibration of exactly this training set.
    Grid runs avoid the rebuild by preparing the model once per cell.
    """
    root = np.random.SeedSequence(spec.seed)
    _, _, mon_ss = root.spawn(3)
    model, _ = build_detector_model(spec.base, spec.m, spec.w, spec.detector, spec.seed)
    return run_prepared_trial(
        model.with_threshold(threshold),
        spec.base,
        spec.kappa,
        spec.scenario,
        spec.resolved_horizon,
        np.random.default_rng(mon_ss),
    )


def corr2(rho):
    return CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))


def sensitivities(rho, mu1, mu2, a11, a22, a12):
    cov = np.array([[a11 * a11, a11 * a22 * a12 * rho], [a11 * a22 * a12 * rho, a22 * a22]])
    post = PostChangeParams(mean=np.array([mu1, mu2]), cov=cov)
    h = projection_sensitivities(eigensystem(corr2(rho)), post)
    return float(h[0]), float(h[1])


class TestBivariatePropositions:
    def test_full_grid_has_no_violations(self):
        report = verify_bivariate_propositions(resolution=0.05)
        assert report["total_violations"] == 0
        for name, tally in report["propositions"].items():
            assert tally["checked"] > 0, name

    def test_single_mean_change_prefers_least_varying(self):
        h_top, h_bot = sensitivities(0.5, 1.0, 0.0, 1.0, 1.0, 1.0)
        assert h_bot > h_top

    def test_equal_change_same_direction_prefers_most_varying(self):
        for rho in np.arange(0.05, 1.0, 0.05):
            for mu in (0.5, 1.0, 1.5):
                h_top, h_bot = sensitivities(float(rho), mu, mu, 1.0, 1.0, 1.0)
                assert h_bot < h_top

    def test_equal_variance_changes_tie(self):
        for rho in (-0.8, -0.3, 0.4, 0.9):
            for a in (0.5, 1.7, 2.5):
                h_top, h_bot = sensitivities(rho, 0.0, 0.0, a, a, 1.0)
                assert abs(h_bot - h_top) < 1e-12

    def test_one_variance_decrease_exceptional_region(self):
        # |rho| > sqrt(3)/2 and a < sqrt(4 rho^2 - 3) flips the ordering
        h_top, h_bot = sensitivities(0.95, 0.0, 0.0, 0.5, 1.0, 1.0)
        assert h_bot > h_top
        h_top, h_bot = sensitivities(0.3, 0.0, 0.0, 0.5, 1.0, 1.0)
        assert h_bot < h_top

    def test_correlation_shrink_prefers_least_varying(self):
        h_top, h_bot = sensitivities(0.6, 0.0, 0.0, 1.0, 1.0, 0.25)
        assert h_bot > h_top

    def test_boundary_point_excluded_and_noted(self):
        report = verify_bivariate_propositions(rho_values=[math.sqrt(3.0) / 2.0])
        assert report["total_violations"] == 0
        assert report["propositions"]["one_variance"]["excluded"] > 0


class TestTrials:
    def test_null_trial_with_unreachable_threshold_censored(self):
        base = random_correlation(4, 1.0, np.random.default_rng(0))
        spec = TrialSpec(
            base=base,
            m=60,
            n=40,
            w=30,
            kappa=0,
            detector=DetectorSpec(kind="minpca", n_axes=2),
            scenario=None,
            seed=1,
        )
        outcome = run_trial(spec, threshold=math.inf)
        assert outcome.censored and not outcome.false_alarm

    def test_huge_mean_change_detected_fast(self):
        base = random_correlation(10, 1.0, np.random.default_rng(2))
        det = DetectorSpec(kind="mixture", p0=0.3)
        model, train = build_detector_model(base, 100, 50, det, 3)
        from tailormon import CalibrationConfig, calibrate_threshold

        cfg = CalibrationConfig(alpha=0.05, n=50, confidence=0.9, replicates=500, seed=4)
        res = calibrate_threshold(model, train, cfg)
        armed = model.with_threshold(res.threshold)
        scenario = ChangeScenario(ctype="mean", affected=tuple(range(10)), mean_sizes=(10.0,) * 10)
        hits = 0
        for ss in np.random.SeedSequence(5).spawn(200):
            outcome = run_prepared_trial(armed, base, 0, scenario, 400, np.random.default_rng(ss))
            hits += outcome.detected and outcome.delay <= 3
        assert hits >= 0.99 * 200

    def test_min_and_max_pca_agree_when_selecting_all_axes(self):
        base = random_correlation(5, 1.0, np.random.default_rng(6))
        delays = {}
        for kind in ("minpca", "maxpca"):
            det = DetectorSpec(kind=kind, n_axes=5)
            model, _ = build_detector_model(base, 80, 40, det, 7)
            armed = model.with_threshold(25.0)
            scenario = ChangeScenario(ctype="mean", affected=(0, 1), mean_sizes=(2.0, 2.0))
            ts = []
            for ss in np.random.SeedSequence(8).spawn(50):
                outcome = run_prepared_trial(armed, base, 0, scenario, 200, np.random.default_rng(ss))
                ts.append(outcome.alarm_time)
            delays[kind] = ts
        assert delays["minpca"] == delays["maxpca"]

    def test_reproducible_outcomes(self):
        base = random_correlation(4, 1.0, np.random.default_rng(9))
        det = DetectorSpec(kind="minpca", n_axes=2)
        model, _ = build_detector_model(base, 60, 30, det, 10)
        armed = model.with_threshold(14.0)
        a = [
            run_prepared_trial(armed, base, 0, None, 100, np.random.default_rng(s)).alarm_time
            for s in range(20)
        ]
        b = [
            run_prepared_trial(armed, base, 0, None, 100, np.random.default_rng(s)).alarm_time
            for s in range(20)
        ]
        assert a == b


class TestOutcomeAggregation:
    @staticmethod
    def outcome(alarm, kappa=0, horizon=100):
        return TrialOutcome(alarm_time=alarm, kappa=kappa, horizon=horizon)

    def test_outcome_classification(self):
        assert self.outcome(5, kappa=10).false_alarm
        assert self.outcome(50, kappa=10).detected
        assert self.outcome(None).censored
        assert self.outcome(50, kappa=10).delay == 40
        assert self.outcome(None, kappa=10).delay == 90

    def test_constant_delays(self):
        est = estimate_edd([self.outcome(7) for _ in range(40)])
        assert est.mean == 7.0
        assert est.ci == (7.0, 7.0)

    def test_ci_shrinks_with_replicates(self):
        rng = np.random.default_rng(11)
        delays = rng.integers(1, 60, size=800)
        small = estimate_edd([self.outcome(int(d)) for d in delays[:400]])
        large = estimate_edd([self.outcome(int(d)) for d in delays])
        shrink = (large.ci[1] - large.ci[0]) / (small.ci[1] - small.ci[0])
        assert shrink == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)

    def test_censored_contribute_truncation_and_are_counted(self):
        outcomes = [self.outcome(5) for _ in range(30)] + [self.outcome(None)] * 10
        est = estimate_edd(outcomes)
        assert est.n_censored == 10
        assert est.mean == pytest.approx((30 * 5 + 10 * 100) / 40)

    def test_too_few_detections(self):
        with pytest.raises(TooFewDetections):
            estimate_edd([self.outcome(5)] * 10)

    def test_pfa_extremes(self):
        censored = [self.outcome(None) for _ in range(150)]
        assert estimate_pfa(censored, 100).proportion == 0.0
        alarms = [self.outcome(1) for _ in range(150)]
        assert estimate_pfa(alarms, 100).proportion == 1.0

    def test_pfa_needs_replicates(self):
        with pytest.raises(ConfigError):
            estimate_pfa([self.outcome(None)] * 50, 100)


class TestEddMonotonicity:
    def test_larger_mean_shifts_detect_no_slower(self):
        # across the shift-size grid, estimated delays are non-increasing
        # up to confidence-interval overlap
        from tailormon import CalibrationConfig, calibrate_threshold

        base = random_correlation(8, 0.5, np.random.default_rng(20))
        det = DetectorSpec(kind="minpca", n_axes=3)
        model, train = build_detector_model(base, 100, 50, det, 21)
        cfg = CalibrationConfig(alpha=0.05, n=50, confidence=0.9, replicates=400, seed=22)
        armed = model.with_threshold(calibrate_threshold(model, train, cfg).threshold)
        estimates = []
        for size in (0.5, 0.7, 1.0, 1.3):
            outcomes = []
            for rep in range(120):
                rng = np.random.default_rng(np.random.SeedSequence(entropy=[23, rep]))
                scenario = scenario_from_cell("mean", 2, size, 8, rng)
                outcomes.append(run_prepared_trial(armed, base, 0, scenario, 200, rng))
            estimates.append(estimate_edd(outcomes, min_detections=0))
        for prev, nxt in zip(estimates, estimates[1:]):
            slack = (prev.ci[1] - prev.ci[0]) / 2 + (nxt.ci[1] - nxt.ci[0]) / 2
            assert nxt.mean <= prev.mean + slack


class TestScenarioFromCell:
    def test_mean_cell(self):
        sc = scenario_from_cell("mean", 3, 1.5, 10, np.random.default_rng(12))
        assert sc.sparsity == 3
        assert sc.mean_sizes == (1.5, 1.5, 1.5)

    def test_correlation_cell_pairs(self):
        sc = scenario_from_cell("correlation", 3, 0.25, 10, np.random.default_rng(13))
        assert len(sc.corr_factors) == 3
        assert all(v == 0.25 for v in sc.corr_factors.values())


class TestSimulateGrid:
    GRID = {
        "schema": "tailormon/grid@1",
        "seed": 5,
        "dim": 6,
        "m": 80,
        "n": 40,
        "window": 30,
        "alpha": 0.05,
        "confidence": 0.5,
        "replicates_boot": 300,
        "trial_replicates": 120,
        "horizon_mult": 5,
        "detectors": [
            {"kind": "minpca", "n_axes": 2},
            {"kind": "maxpca", "n_axes": 1, "threshold": 1e308},
        ],
        "cells": [
            {"ctype": "h0"},
            {"ctype": "mean", "sparsity": 1, "size": 3.0, "kappa": 0},
        ],
    }

    def test_grid_rows_and_determinism(self):
        rows, manifest = simulate_grid(self.GRID)
        assert manifest == []
        assert len(rows) == 4
        again, _ = simulate_grid(self.GRID)
        assert rows == again
        by_key = {(r["detector"], r["change_type"]): r for r in rows}
        # unreachable threshold: the null cell records zero false alarms and
        # the change cell reports the truncation value
        assert by_key[("maxpca", "h0")]["pfa"] == 0.0
        assert by_key[("maxpca", "mean")]["edd"] == 5 * 40
        assert by_key[("maxpca", "mean")]["n_detected"] == 0
        assert by_key[("minpca", "h0")]["pfa"] <= 0.15
        assert by_key[("minpca", "mean")]["edd"] is not None

    def test_failed_cell_lands_in_manifest(self):
        bad = dict(self.GRID)
        bad["cells"] = [{"ctype": "mean", "sparsity": 99, "size": 1.0}]
        rows, manifest = simulate_grid(bad)
        assert rows == []
        assert len(manifest) == 2
        assert "sparsity" in manifest[0]["error"] or "ConfigError" in manifest[0]["error"]
