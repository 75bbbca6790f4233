import itertools
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
    apply_change,
    build_monitor_model,
    eigensystem,
    estimate_edd,
    estimate_pfa,
    estimate_training,
    identity_selection,
    lag_extend_matrix,
    min_variance_selection,
    projection_sensitivities,
    random_correlation,
    simulate_grid,
    verify_bivariate_propositions,
)
import trial_reference
from tailormon import evalharness
from tailormon.evalharness import (
    TRIAL_LONG_STRETCHES,
    TRIAL_STRETCH_FIRST,
    TRIAL_STRETCH_MAX,
    build_detector_model,
    gaussian_rows,
    run_prepared_trial,
    run_prepared_trials,
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

    @pytest.mark.parametrize("resolution", [0.0, -0.1, 2.0, math.nan, math.inf])
    def test_resolution_outside_its_range_is_rejected(self, resolution):
        # each of these used to leave an empty grid (or divide by zero)
        # and report 0 violations with nothing checked
        with pytest.raises(ConfigError, match="resolution"):
            verify_bivariate_propositions(resolution=resolution)

    def test_empty_rho_values_are_rejected(self):
        with pytest.raises(ConfigError, match="rho_values"):
            verify_bivariate_propositions(rho_values=[])

    @pytest.mark.parametrize("rho_values", [[0.0, 1.0], [-2.0, 5.0], [1e-7, -1.0]])
    def test_rho_values_with_nothing_checkable_are_rejected(self, rho_values):
        # every one of these is excluded; the report used to say 0
        # violations with 0 points checked
        with pytest.raises(ConfigError, match="rho_values"):
            verify_bivariate_propositions(rho_values=rho_values)

    @pytest.mark.parametrize("rho_values", [[math.nan], [0.5, math.inf], [-math.inf, 0.5]])
    def test_non_finite_rho_is_rejected(self, rho_values):
        # a NaN rho used to pass the exclusion test and be "checked"
        with pytest.raises(ConfigError, match="finite"):
            verify_bivariate_propositions(rho_values=rho_values)

    def test_coarsest_resolution_checks_one_grid_point_per_sign(self):
        report = verify_bivariate_propositions(resolution=0.95)
        assert report["rho_values"] == [-0.95, 0.95]
        assert all(tally["checked"] > 0 for tally in report["propositions"].values())


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

    def test_correlation_cell_of_one_variable_rejected(self):
        # one affected variable has no pair whose correlation could change
        with pytest.raises(ConfigError, match="sparsity >= 2"):
            scenario_from_cell("correlation", 1, 0.25, 10, np.random.default_rng(13))


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

    def test_rows_equal_the_per_trial_loop(self, monkeypatch):
        # every detector kind, a p0 < 1 mixture, change cells of each type
        # with kappa > 0, a change past the horizon, a fixed threshold and a
        # window shorter than the horizon; the trials run in stacked groups,
        # several to a cell, and must give the rows of trials run one by one
        grid = dict(
            self.GRID,
            trial_replicates=70,
            replicates_boot=100,
            detectors=[
                {"kind": "minpca", "n_axes": 2},
                {"kind": "maxpca", "n_axes": 3},
                {"kind": "mixture", "p0": 0.2},
                {"kind": "mixture", "p0": 0.5, "threshold": 6.0},
                {"kind": "tpca", "cutoff": 0.8, "draws": 200},
            ],
            cells=[
                {"ctype": "h0"},
                {"ctype": "mean", "sparsity": 2, "size": 1.0, "kappa": 15},
                {"ctype": "variance", "sparsity": 2, "size": 2.5},
                {"ctype": "correlation", "sparsity": 3, "size": 0.1, "kappa": 5},
                {"ctype": "mean", "sparsity": 1, "size": 0.3, "kappa": 150},
            ],
        )
        rows, manifest = simulate_grid(grid)
        groups = []
        stacked = evalharness._stacked_crossings

        def counting(model, z, *rest):
            groups.append(z.shape[1])
            return stacked(model, z, *rest)

        monkeypatch.setattr(evalharness, "_stacked_crossings", counting)
        simulate_grid(grid)
        assert max(groups) > 1 and len(groups) > len(grid["detectors"]) * len(grid["cells"])
        monkeypatch.setattr(evalharness, "_cell_outcomes", trial_reference.cell_outcomes)
        ref_rows, ref_manifest = simulate_grid(grid)
        assert manifest == ref_manifest
        assert rows == ref_rows

    def test_run_prepared_trials_equal_trials_alone(self):
        base = random_correlation(6, 1.0, np.random.default_rng(4))
        model, _ = build_detector_model(base, 80, 30, DetectorSpec(kind="mixture", p0=0.3), 7)
        model = model.with_threshold(12.0)
        sc = ChangeScenario(ctype="mean", affected=(1, 4), mean_sizes=(1.0, 1.0))

        def rngs():
            return [np.random.default_rng(np.random.SeedSequence([3, rep])) for rep in range(45)]

        for scenario, kappa, horizon in ((None, 0, 60), (sc, 10, 300)):
            got = run_prepared_trials(model, base, kappa, ((scenario, r) for r in rngs()), horizon)
            alone = [trial_reference.run_trial(model, base, kappa, scenario, horizon, r) for r in rngs()]
            assert got == alone
            # null streams that alarm and that do not; change streams alarming at many times
            assert len({o.alarm_time for o in alone}) > 10 and (scenario or None in {o.alarm_time for o in alone})
            assert [run_prepared_trial(model, base, kappa, scenario, horizon, r) for r in rngs()] == alone

    def test_failing_trial_raises_its_own_error(self):
        base = random_correlation(4, 1.0, np.random.default_rng(4))
        model, _ = build_detector_model(base, 60, 20, DetectorSpec(kind="maxpca", n_axes=2), 7)
        model = model.with_threshold(8.0)
        huge = ChangeScenario(ctype="mean", affected=(2,), mean_sizes=(1e200,))
        trials = [(None, np.random.default_rng(1)), (huge, np.random.default_rng(2)), (None, np.random.default_rng(3))]
        with pytest.raises(ValueError, match="non-finite value or one whose square overflows"):
            run_prepared_trials(model, base, 5, iter(trials), 40)
        with pytest.raises(ValueError, match="non-finite value or one whose square overflows"):
            trial_reference.run_trial(model, base, 5, huge, 40, np.random.default_rng(2))

    # a D = 4 grid whose change cell runs to a horizon of 10 * 20 = 200 steps
    SMALL = {
        "schema": "tailormon/grid@1", "seed": 3, "dim": 4, "m": 60, "n": 20, "window": 20, "alpha": 0.05,
        "confidence": 0.5, "replicates_boot": 100, "trial_replicates": 10, "horizon_mult": 10,
        "detectors": [{"kind": "minpca", "n_axes": 2}],
        "cells": [{"ctype": "h0"}, {"ctype": "mean", "sparsity": 1, "size": 2.0}],
    }

    @pytest.mark.parametrize(
        "change, ok",
        [
            ({"trial_replicates": 0}, False),
            ({"trial_replicates": -3}, False),
            ({"trial_replicates": 1}, True),
            ({"horizon_mult": 0}, False),
            ({"horizon_mult": -1}, False),
            ({"horizon_mult": 1}, True),
            ({"kappa": 500}, False),
            ({"kappa": 200}, False),
            ({"kappa": -5}, False),
            ({"kappa": 199}, True),
            ({"kappa": 0}, True),
            # a cell that is no object, of an unknown change type, or without a
            # sparsity or a size once failed every detector's run of it
            ({"cells": ["h0"]}, False),
            ({"cells": [{"ctype": "h0"}, "mean"]}, False),
            ({"cells": [{"ctype": "h0"}, {"ctype": "drift", "sparsity": 1, "size": 2.0}]}, False),
            ({"cells": [{"ctype": "mean", "size": 2.0}]}, False),
            ({"cells": [{"ctype": "variance", "sparsity": 1}]}, False),
            # a sparsity above the dimension fails its cell alone, into the manifest
            ({"cells": [{"ctype": "h0"}, {"ctype": "mean", "sparsity": 9, "size": 2.0}]}, True),
        ],
    )
    def test_bad_grid_fails_before_any_detector_is_built(self, monkeypatch, change, ok):
        # such grids once calibrated every detector and then failed each cell
        # (ZeroDivisionError, TooFewDetections) or wrote delays of 0, -20 or
        # -300 steps
        class Built(Exception):
            pass

        def build(*args):
            raise Built

        monkeypatch.setattr(evalharness, "build_detector_model", build)
        grid = dict(self.SMALL, **{k: v for k, v in change.items() if k != "kappa"})
        if "kappa" in change:
            grid["cells"] = [{"ctype": "h0"}, dict(grid["cells"][1], kappa=change["kappa"])]
        with pytest.raises(Built if ok else ConfigError):
            simulate_grid(grid)

    def test_failed_cell_lands_in_manifest(self):
        bad = dict(self.GRID)
        bad["cells"] = [{"ctype": "mean", "sparsity": 99, "size": 1.0}]
        rows, manifest = simulate_grid(bad)
        assert rows == []
        assert len(manifest) == 2
        assert "sparsity" in manifest[0]["error"] or "ConfigError" in manifest[0]["error"]


def stretch_model(lag=0, p0=1.0, dim=5, window=30):
    """A model of ``lag`` over a random base: two least varying axes, or at p0 < 1 every standardized stream."""
    rng = np.random.default_rng(11)
    base = random_correlation(dim, 1.0, rng)
    raw = rng.standard_normal((80 + lag, dim)) @ np.linalg.cholesky(base.values).T
    ext = lag_extend_matrix(raw, lag)
    summary = estimate_training(ext)
    if p0 < 1.0:
        selection = identity_selection(summary.dim)
    else:
        selection = min_variance_selection(eigensystem(summary.corr), 2)
    return build_monitor_model(summary, selection, ext, p0=p0, window=window, lag=lag), base


def whole_stream(base, kappa, scenario, horizon, seed):
    """A trial's stream drawn whole from ``default_rng(seed)``, as ``trial_reference.run_trial`` draws it."""
    rng = np.random.default_rng(seed)
    chol0 = np.linalg.cholesky(base.values)
    if scenario is None:
        return gaussian_rows(rng, horizon, np.zeros(base.dim), chol0)
    post = apply_change(base, scenario)
    return np.vstack([
        gaussian_rows(rng, kappa, np.zeros(base.dim), chol0),
        gaussian_rows(rng, horizon - kappa, post.mean, np.linalg.cholesky(post.cov)),
    ])


def stretch_ends(horizon):
    """The last raw step of each trial stretch: 64, 128, 256, ... steps up to 256 or an eighth of the horizon, a rest under 64 joining the last."""
    longest = max(TRIAL_STRETCH_MAX, horizon // TRIAL_LONG_STRETCHES)
    ends = [0]
    for k in itertools.count():
        size = min(TRIAL_STRETCH_FIRST << k, longest)
        if ends[-1] + size + TRIAL_STRETCH_FIRST > horizon:
            return ends[1:] + [horizon] if ends[-1] < horizon else ends[1:]
        ends.append(ends[-1] + size)


def test_stretch_ends():
    assert evalharness._stretch_ends(0) == []
    assert evalharness._stretch_ends(1) == [1]
    assert evalharness._stretch_ends(127) == [127]
    assert evalharness._stretch_ends(128) == [64, 128]
    assert evalharness._stretch_ends(100) == [100]
    assert evalharness._stretch_ends(1000) == [64, 192, 448, 704, 1000]
    assert evalharness._stretch_ends(1024) == [64, 192, 448, 704, 960, 1024]
    assert evalharness._stretch_ends(2048) == [64, 192, 448, 704, 960, 1216, 1472, 1728, 1984, 2048]
    assert evalharness._stretch_ends(5000) == [64, 192, 448, 960, 1585, 2210, 2835, 3460, 4085, 4710, 5000]
    # a long horizon is cut into a few more stretches than the ramp, however long it is
    assert len(evalharness._stretch_ends(50_000)) == 14
    for horizon in itertools.chain(range(0, 2000, 7), range(2000, 12_000, 97)):
        assert evalharness._stretch_ends(horizon) == stretch_ends(horizon)


@pytest.mark.parametrize("horizon, sizes", [(100, (81, 54, 16)), (1000, (40, 27, 8))])
def test_trial_group_sizes_at_the_benchmark_grids_horizons(horizon, sizes):
    # perfbench's grid: D = 20, w = 200, and 2 or 3 tailored axes or the 20
    # streams of the mixture detector; the raw rows a group holds while a
    # stretch is prepared leave these sizes as they were when only its
    # projections were held
    assert tuple(evalharness._group_size(J, 200, 20, horizon) for J in (2, 3, 20)) == sizes


class TestStretchRunner:
    """``run_prepared_trials`` runs a trial group stretch by stretch; every outcome is the trial's alone."""

    SHIFT = ChangeScenario(ctype="mean", affected=(1, 3), mean_sizes=(1.0, 1.0))

    @staticmethod
    def run_both(model, base, kappa, scenario, horizon, seeds, monkeypatch=None):
        """The runner's outcomes, checked against ``trial_reference.run_trial``, and the raw rows drawn per trial."""
        drawn = {}
        if monkeypatch is not None:
            rows = evalharness._trial_rows

            def spy(rng, start, end, *rest):
                drawn[rng] = end
                return rows(rng, start, end, *rest)

            monkeypatch.setattr(evalharness, "_trial_rows", spy)
        rngs = [np.random.default_rng(s) for s in seeds]
        got = run_prepared_trials(model, base, kappa, [(scenario, r) for r in rngs], horizon)
        alone = [
            trial_reference.run_trial(model, base, kappa, scenario, horizon, np.random.default_rng(s)) for s in seeds
        ]
        assert got == alone
        return got, [drawn.get(r) for r in rngs]

    # at lag 2 every live trial holds two raw rows from one stretch to the
    # next, while the trials leave at different stretches
    @pytest.mark.parametrize("lag, p0", [(0, 1.0), (1, 1.0), (2, 1.0), (0, 0.3), (1, 0.3), (2, 0.3)])
    def test_alarms_at_and_beside_stretch_edges(self, monkeypatch, lag, p0):
        model, base = stretch_model(lag, p0)
        horizon = 500
        first, second = stretch_ends(horizon)[:2]
        # one step before, at and after the end of each of the first two
        # stretches, and in the third; the change comes 12 steps earlier, for
        # the last four beyond the first stretch
        for target in (first - 1, first, first + 1, second - 1, second, second + 1, second + 70):
            kappa = target - 12
            for seed in range(200):
                stat = trial_reference.trace_stats(model, whole_stream(base, kappa, self.SHIFT, horizon, seed))[0]
                # a strict record at the target: it is the first step to reach its own value
                if stat[target - 1] > stat[:target - 1].max(initial=-math.inf):
                    break
            else:
                pytest.fail(f"no trial has a record at step {target}")
            armed = model.with_threshold(float(stat[target - 1]))
            got, drawn = self.run_both(armed, base, kappa, self.SHIFT, horizon, [seed, *range(500, 511)], monkeypatch)
            assert got[0].alarm_time == target
            # each trial's rows end with the stretch of its alarm
            ends = stretch_ends(horizon)
            for outcome, rows in zip(got, drawn):
                t = outcome.alarm_time
                assert rows == (horizon if t is None else min(e for e in ends if e >= t))

    # a short fourth stretch ends the horizon, and the change comes in the
    # second; or a horizon long enough for stretches of more than
    # TRIAL_STRETCH_MAX steps
    @pytest.mark.parametrize(
        "lag, p0, horizon, kappa",
        [(0, 1.0, 549, 84), (1, 0.3, 549, 84), (0, 0.3, TRIAL_LONG_STRETCHES * TRIAL_STRETCH_MAX + 600, 300)],
    )
    def test_trials_that_never_alarm_are_drawn_to_the_horizon(self, monkeypatch, lag, p0, horizon, kappa):
        model, base = stretch_model(lag, p0)
        ends = stretch_ends(horizon)
        assert len(ends) == 4 or max(np.diff([0, *ends])) > TRIAL_STRETCH_MAX
        seeds = list(range(24))
        small = ChangeScenario(ctype="mean", affected=(2,), mean_sizes=(0.3,))
        maxima = [
            trial_reference.trace_stats(model, whole_stream(base, kappa, small, horizon, s))[0].max() for s in seeds
        ]
        # half of the trials alarm, at many times, and the others never do
        armed = model.with_threshold(float(np.median(maxima)))
        got, drawn = self.run_both(armed, base, kappa, small, horizon, seeds, monkeypatch)
        alarms = [o.alarm_time for o in got if not o.censored]
        assert 0 < len(alarms) < len(got) and max(alarms) > ends[2]
        for outcome, rows in zip(got, drawn):
            t = outcome.alarm_time
            assert rows == (horizon if t is None else min(e for e in ends if e >= t))
        nowhere = model.with_threshold(math.inf)
        got, drawn = self.run_both(nowhere, base, kappa, small, horizon, seeds[:5], monkeypatch)
        assert all(o.censored for o in got) and drawn == [horizon] * 5

    def test_bad_rows_in_two_trials_raise_the_error_of_the_first_stretch(self):
        model, base = stretch_model()
        model = model.with_threshold(math.inf)
        first, second = stretch_ends(10_000)[:2]
        raw_reject = "non-finite value or one whose square overflows"
        totals_reject = "running sums of squares too large"

        def shift(size):
            return ChangeScenario(ctype="mean", affected=(0, 3), mean_sizes=(size, size))

        def error(run, scenario, horizon):
            try:
                run(scenario, horizon)
            except ValueError as exc:
                return str(exc)
            return None

        def alone(scenario, horizon):
            trial_reference.run_trial(model, base, 5, scenario, horizon, np.random.default_rng(1))

        def stretched(scenario, horizon):
            run_prepared_trials(model, base, 5, [(scenario, np.random.default_rng(1))], horizon)

        # the smallest shift whose rows each pass every check, but whose
        # running sums of squares grow too large for the scan by the end of the
        # second stretch: the runner checks each stretch after the sums before it
        for size in 10.0 ** np.arange(150.0, 154.0, 0.125):
            if error(alone, shift(size), first) is None and totals_reject in (error(alone, shift(size), second) or ""):
                late = shift(size)
                break
        else:
            pytest.fail("no shift fails in the second stretch alone")
        assert error(stretched, late, first) is None
        assert totals_reject in error(stretched, late, second)
        # squares that overflow in the first stretch
        early = shift(1e200)

        def trials(*scenarios):
            return [(sc, np.random.default_rng(1)) for sc in scenarios]

        # drawn whole, each trial raises its own error
        with pytest.raises(ValueError, match=totals_reject):
            trial_reference.run_trial(model, base, 5, late, second, np.random.default_rng(1))
        with pytest.raises(ValueError, match=raw_reject):
            trial_reference.run_trial(model, base, 5, early, second, np.random.default_rng(1))
        # in a group, the first stretch's failure comes first, whatever the trial
        # order; within a stretch, the first trial's
        for order in ((late, early), (early, late), (None, late, early)):
            with pytest.raises(ValueError, match=raw_reject):
                run_prepared_trials(model, base, 5, trials(*order), second)
        with pytest.raises(ValueError, match=totals_reject):
            run_prepared_trials(model, base, 5, trials(None, late, shift(1.0)), second)

    def test_a_bad_row_after_the_groups_last_alarm_is_never_drawn(self):
        model, base = stretch_model()
        # every trial alarms within the first stretch, long before the change
        armed = model.with_threshold(0.0)
        kappa, horizon = 3 * TRIAL_STRETCH_FIRST, 4 * TRIAL_STRETCH_FIRST
        huge = ChangeScenario(ctype="mean", affected=(2,), mean_sizes=(1e200,))
        trials = [(huge, np.random.default_rng(s)) for s in range(6)]
        outcomes = run_prepared_trials(armed, base, kappa, trials, horizon)
        assert all(o.alarm_time < TRIAL_STRETCH_FIRST for o in outcomes)
        # drawn whole, the stream holds the bad rows, and they raise
        with pytest.raises(ValueError, match="non-finite value or one whose square overflows"):
            trial_reference.run_trial(armed, base, kappa, huge, horizon, np.random.default_rng(0))


@pytest.mark.parametrize("cuts", [[1], [1, 2, 3], [64, 192, 448], [5, 6, 7, 500], [999]])
def test_normals_drawn_in_stretches_equal_one_draw(cuts):
    """The numpy property the stretch runner relies on: normals drawn in stretches are one draw's, bit for bit."""
    whole = np.random.default_rng(3).standard_normal((1000, 7))
    rng = np.random.default_rng(3)
    edges = [0, *cuts, 1000]
    pieces = [rng.standard_normal((b - a, 7)) for a, b in zip(edges, edges[1:])]
    assert np.vstack(pieces).tobytes() == whole.tobytes()


@pytest.mark.parametrize("dim", [2, 20, 40, 100])
@pytest.mark.parametrize("kappa, horizon", [(0, 1000), (63, 300), (65, 200), (150, 200), (1, 65), (999, 1000)])
def test_trial_rows_drawn_in_stretches_equal_the_whole_stream(dim, kappa, horizon):
    """A trial's stream drawn stretch by stretch is the stream drawn whole, bit for bit, one-row stretches included.

    A product with the Cholesky factor taken over a part of a chunk's rows
    need not give the bits of the chunk's product: BLAS picks its kernel
    by the shape of the call. ``_trial_rows`` multiplies each part in the
    shape of its chunk, so the parts are exact at every dimension.
    """
    rng = np.random.default_rng(dim)
    base = random_correlation(dim, 1.0, rng)
    null = (np.zeros(dim), np.linalg.cholesky(base.values))
    post = (rng.standard_normal(dim), 1.5 * null[1])
    for scenario_post in (None, post):
        g = np.random.default_rng(8)
        if scenario_post is None:
            whole = gaussian_rows(g, horizon, *null)
        else:
            whole = np.vstack([gaussian_rows(g, kappa, *null), gaussian_rows(g, horizon - kappa, *post)])
        for ends in (stretch_ends(horizon), [1, 2, 64, 65, 66, horizon], [kappa - 1, kappa, kappa + 1, horizon]):
            edges = sorted({0, horizon, *(e for e in ends if 0 < e < horizon)})
            g = np.random.default_rng(8)
            got = [
                evalharness._trial_rows(g, a, b, kappa, horizon, null, scenario_post) for a, b in zip(edges, edges[1:])
            ]
            assert np.vstack(got).tobytes() == whole.tobytes()
