"""The three benchmark workloads: stream, calibrate and grid.

Every workload has a set-up phase, repeated at least ``SETUP_REPEATS``
times so its median is reported, and a timed phase that repeats the
workload's main operation until ``seconds`` have passed (always at least
once), each pass bracketed by reference loops that track the host's
speed. Each workload checks the outputs it timed and counts the
operations it attempted and the ones that failed a check.

The base correlation matrix of each workload is fixed (drawn from
``BASE_SEED``), so every seed monitors the same system and does the same
amount of work; the seed draws the training data, the streams, the
Monte Carlo and bootstrap draws and the injected changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np
from scipy.stats import beta as beta_dist

import tailormon as tm
from tailormon import _fileio
from tailormon import cli as tm_cli

from measure import median, percentile

perf_counter = time.perf_counter

SETUP_REPEATS = 3
BASE_SEED = 20190806
DIM = 20

# stream: AR(1) columns, lag-1 tailoring, block-bootstrap calibration
STREAM_TRAIN_ROWS = 500
STREAM_ROWS = 3000
STREAM_CHANGE_AT = 1800  # rows 1800.. (raw times 1801..) carry the shift
STREAM_AR = 0.5
STREAM_SHIFT_COLS = 2
STREAM_SHIFT = 1.5
# relative tolerance of a step statistic against the per-candidate reference
STREAM_REF_RTOL = 1e-7

# calibrate: parametric bootstrap of a tailored lag-0 model
CAL_TRAIN_ROWS = 200
CAL_CONFIG = dict(alpha=0.05, n=100, confidence=0.9, replicates=100)

# grid: criterion 06's shape, scaled down
GRID_DETECTORS = (
    {"kind": "tpca", "cutoff": 0.9, "draws": 2000},
    {"kind": "mixture", "p0": 0.1},
)
GRID_CELLS = ({"ctype": "h0"}, {"ctype": "mean", "sparsity": 2, "size": 1.0})
GRID_TRIALS = 40
GRID_BOOT = 100


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, n: int):
        self.attempted += n

    def fail(self, n: int, why: str):
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)


class Context:
    """What a workload needs: seed, time budget, scratch directory, recorder."""

    def __init__(self, seed: int, seconds: float, workdir: str, recorder=None):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.recorder = recorder
        self.tally = Tally()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def phase(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span("bench." + name)


def fixed_base() -> tm.CorrelationMatrix:
    return tm.random_correlation(DIM, 1.0, np.random.default_rng(BASE_SEED))


# Reference loop: fixed numpy and json work of the same kind as a monitor
# step (cumulative sums, logs and a maximum over a (201, 4) window, one
# JSON line, now and then a 20x20 eigendecomposition). It shares no code
# with tailormon, so a change to tailormon leaves its duration alone,
# while the host's speed swings (tens of percent over tens of seconds on
# a shared 2-core machine) slow it about as much as the workload.
_REF_WINDOW = np.linspace(0.1, 1.0, 804).reshape(201, 4)
_REF_N2 = np.arange(2, 202, dtype=float)[:, None]
_REF_C = np.linspace(1.0, 1.1, 200)
_REF_MATRIX = np.eye(DIM) + 0.3
REF_ITERATIONS = 600


def reference_loop() -> float:
    """Run the reference loop once; its wall time in seconds."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(REF_ITERATIONS):
        rev = _REF_WINDOW[::-1]
        s = np.cumsum(rev, axis=0)[1:]
        q = np.cumsum(rev * rev, axis=0)[1:]
        v = np.maximum((q - s * s / _REF_N2) / _REF_N2, 1e-12)
        x = (0.5 * _REF_N2 * np.log(v))[::-1] / _REF_C[:, None]
        lam = np.log1p(0.5 * np.expm1(np.minimum(x, 0.0))).sum(axis=1)
        acc += float(lam[int(np.argmax(lam))])
        acc += len(json.dumps({"t": i, "stat": acc, "argmax_k": None, "alarm": False}, sort_keys=True))
        if i % 20 == 0:
            acc += float(np.linalg.eigh(_REF_MATRIX)[0][0])
    if not math.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite value")
    return perf_counter() - t0


def timed_passes(seconds: float, one_pass):
    """Call ``one_pass()`` until ``seconds`` have passed, at least once."""
    deadline = perf_counter() + seconds
    while True:
        one_pass()
        if perf_counter() >= deadline:
            return


class Meter:
    """Throughput of timed calls and the host's speed around each.

    Every call is bracketed by reference loops. A call that hands back
    control midway (a progress callback) can take more reference samples
    through ``sample``; their time is left out of the call's duration, and
    they split the call into segments. Each segment's duration is divided
    by the mean of the two samples around it, which gives the call's
    length in reference loops; ``refs`` holds the call's duration over
    that length, so ``rate * ref`` is operations per reference loop.
    """

    def __init__(self):
        self.seconds: list[float] = []
        self.rates: list[float] = []
        self.refs: list[float] = []
        self.samples: list[list[float]] = []
        self._marks: list[tuple[float, float]] = []

    def sample(self, *_):
        t0 = perf_counter()
        ref = reference_loop()
        self._marks.append((t0, ref))

    def time(self, ops: int, fn, *args, **kwargs):
        self._marks = []
        before = reference_loop()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        t1 = perf_counter()
        after = reference_loop()
        refs, lengths, elapsed, start = [before], 0.0, 0.0, t0
        for mark, ref in [*self._marks, (t1, after)]:
            segment = mark - start
            elapsed += segment
            lengths += segment / (0.5 * (refs[-1] + ref))
            refs.append(ref)
            start = mark + ref
        self.seconds.append(elapsed)
        self.rates.append(ops / elapsed)
        self.refs.append(elapsed / lengths)
        self.samples.append(refs)
        return result


def run_cli(args: list[str]) -> int:
    """Invoke the tailormon CLI in-process; its exit code, 0 on success."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            tm_cli.main.main(args=args, prog_name="tailormon", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    return 0


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fobj:
        return fobj.read()


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------


def stream_inputs(seed: int, base: tm.CorrelationMatrix):
    """AR(1) rows with correlation ``base``; a sparse mean shift from STREAM_CHANGE_AT on."""
    rng = np.random.default_rng(seed)
    n = STREAM_TRAIN_ROWS + STREAM_ROWS
    noise = rng.standard_normal((n, DIM)) @ np.linalg.cholesky(base.values).T
    rows = np.empty_like(noise)
    rows[0] = noise[0]
    scale = math.sqrt(1.0 - STREAM_AR * STREAM_AR)
    for i in range(1, n):
        rows[i] = STREAM_AR * rows[i - 1] + scale * noise[i]
    train, stream = rows[:STREAM_TRAIN_ROWS], rows[STREAM_TRAIN_ROWS:].copy()
    cols = rng.choice(DIM, size=STREAM_SHIFT_COLS, replace=False)
    stream[STREAM_CHANGE_AT:, cols] += STREAM_SHIFT
    return train, stream


def stream_setup(ctx: Context) -> tuple[int, str]:
    """Generate the inputs and run the tailor and calibrate CLI stages."""
    train, stream = stream_inputs(ctx.seed, fixed_base())
    _fileio.save_matrix_csv(ctx.path("train.csv"), train)
    _fileio.save_matrix_csv(ctx.path("stream.csv"), stream)
    _fileio.dump_json(ctx.path("spec.json"), tm.ChangeDistributionSpec().to_dict())
    seed = str(ctx.seed)
    code = run_cli(["tailor", ctx.path("train.csv"), ctx.path("spec.json"), "--lag", "1", "-c", "0.9",
                    "--seed", seed, "-o", ctx.path("selection.json")])
    if code != 0:
        return code, "tailor"
    code = run_cli(["calibrate", ctx.path("train.csv"), ctx.path("selection.json"), "--mode", "block",
                    "--n", "100", "-w", "200", "--alpha", "0.05", "--confidence", "0.9", "-N", "200",
                    "--seed", seed, "--threads", "1", "-o", ctx.path("calibration.json")])
    return code, "calibrate"


def stream_model(ctx: Context) -> tm.MonitorModel:
    """The monitor model the CLI builds from the two artifacts."""
    sel_path, cal_path = ctx.path("selection.json"), ctx.path("calibration.json")
    summary, sel, tr_sum, tr_ssq, _, lag = _fileio.parse_selection_document(_fileio.load_json(sel_path), sel_path)
    cal = _fileio.parse_calibration_document(_fileio.load_json(cal_path), cal_path)
    return tm.restore_monitor_model(
        summary, sel, tr_sum, tr_ssq, p0=float(cal["config"]["p0"]), window=int(cal["config"]["window"]),
        lag=lag, threshold=float(cal["threshold"]),
    )


def reference_step(stats: tm.StreamStats, model: tm.MonitorModel) -> tuple[float, int]:
    """Maximum over admissible k of the per-candidate mixture statistic, and its smallest argmax."""
    t = stats.t
    kmin = max(0, t - model.window - 1)
    values = [
        tm.mixture_statistic(tm.stream_llr(stats, k, clamp=True), tm.bartlett_correction(stats.m, k, t), model.p0)
        for k in range(kmin, t - 1)
    ]
    best = int(np.argmax(values))
    return values[best], kmin + best


def stream_reference_steps(model: tm.MonitorModel) -> list[int]:
    """Raw times checked against the reference: window filling, full window, around the change."""
    lag, w = model.lag, model.window
    first = lag + 2
    picks = {first, first + 1, w // 2, w + lag, w + lag + 1, w + lag + 2, w + lag + 3, STREAM_ROWS}
    picks.update(range(400, STREAM_ROWS, 400))
    picks.update(range(STREAM_CHANGE_AT + 1, STREAM_CHANGE_AT + 11))
    return sorted(t for t in picks if first <= t <= STREAM_ROWS)


def run_stream(ctx: Context) -> dict:
    tally = ctx.tally
    setup_times, artifacts = [], None
    for _ in range(SETUP_REPEATS):
        with ctx.phase("setup"):
            t0 = perf_counter()
            code, stage = stream_setup(ctx)
            setup_times.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"stream set-up: {stage} exited with code {code}")
        current = (read_bytes(ctx.path("selection.json")), read_bytes(ctx.path("calibration.json")))
        if artifacts is not None and current != artifacts:
            raise RuntimeError("stream set-up: rerunning tailor and calibrate changed the artifacts")
        artifacts = current

    model = stream_model(ctx)
    rows = _fileio.load_matrix_csv(ctx.path("stream.csv"))
    n = rows.shape[0]
    out_path = ctx.path("alarms.jsonl")
    monitor_args = ["monitor", ctx.path("stream.csv"), ctx.path("selection.json"), ctx.path("calibration.json"),
                    "--continue", "-o", out_path]
    latencies: list[float] = []
    meter = Meter()

    def one_pass():
        # closed loop: one producer feeds rows back to back to a single-writer monitor
        monitor = tm.Monitor(model)
        results = []
        for x in rows:
            t0 = perf_counter()
            res = monitor.step(x)
            _fileio.step_result_line(res)
            latencies.append(perf_counter() - t0)
            results.append(res)
        tally.ops(n)
        code = meter.time(n, run_cli, monitor_args)
        tally.ops(n)
        check_stream_pass(tally, code, out_path, results, n)

    with ctx.phase("timed"):
        timed_passes(ctx.seconds, one_pass)
    check_stream_reference(tally, model, rows)

    return {
        "setup_s": setup_times,
        "meter": meter,
        "report": {
            "rows_per_s": (median(meter.rates), "1/s", f"median of {len(meter.rates)} monitor --continue passes of {n} rows"),
            "step_p50_us": (median(latencies) * 1e6, "us", f"{len(latencies)} closed-loop rows"),
            "step_p99_us": (percentile(latencies, 99) * 1e6, "us", f"{len(latencies)} closed-loop rows"),
            "n_axes": (model.n_streams, "count", "tailored axes (extended dimension 40)"),
        },
    }


def check_stream_pass(tally: Tally, code: int, out_path: str, results, n: int):
    """The CLI pass exited 0, wrote rows + 1 lines, agrees with the library and alarmed after the change."""
    if code != 0:
        tally.fail(n, f"monitor exited with code {code}")
        return
    with open(out_path) as fobj:
        lines = fobj.read().splitlines()
    if len(lines) != n + 1:
        tally.fail(n, f"monitor wrote {len(lines)} lines for {n} rows")
        return
    docs = [json.loads(line) for line in lines]
    bad = 0
    for doc, res in zip(docs, results):
        stat = -math.inf if doc["stat"] is None else doc["stat"]
        same_stat = stat == res.stat or abs(stat - res.stat) <= STREAM_REF_RTOL * max(1.0, abs(res.stat))
        if not (same_stat and doc["t"] == res.t and doc["argmax_k"] == res.argmax_k and doc["alarm"] == res.alarm):
            bad += 1
    if bad:
        tally.fail(bad, f"{bad} CLI rows disagree with the library monitor")
    if docs[-1].get("steps") != n:
        tally.fail(1, f"monitor summary reports {docs[-1].get('steps')} steps for {n} rows")
    if not any(doc["alarm"] and doc["t"] > STREAM_CHANGE_AT for doc in docs[:-1]):
        tally.fail(1, "no alarm after the injected change")


def check_stream_reference(tally: Tally, model: tm.MonitorModel, rows):
    """Untimed pass: sampled steps against the per-candidate reference statistic."""
    picks = set(stream_reference_steps(model))
    monitor = tm.Monitor(model)
    for x in rows:
        res = monitor.step(x)
        if res.t not in picks:
            continue
        ref, ref_k = reference_step(monitor.stats, model)
        if abs(res.stat - ref) > STREAM_REF_RTOL * max(1.0, abs(ref)) or res.argmax_k - model.lag != ref_k:
            tally.fail(1, f"t={res.t}: stat {res.stat!r} argmax {res.argmax_k} vs reference {ref!r} at k={ref_k}")


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def calibrate_setup(seed: int):
    """Training rows and a model on axes tailored at c = 0.9."""
    rng = np.random.default_rng(seed)
    base = fixed_base()
    train = rng.standard_normal((CAL_TRAIN_ROWS, DIM)) @ np.linalg.cholesky(base.values).T
    summary = tm.estimate_training(train)
    selection = tm.tailor(summary.corr, tm.ChangeDistributionSpec(), 0.9, 10_000, rng)
    model = tm.build_monitor_model(summary, selection, train, p0=1.0, window=200, lag=0)
    return model, train


def run_calibrate(ctx: Context) -> dict:
    tally = ctx.tally
    setup_times, indices = [], None
    for _ in range(SETUP_REPEATS):
        with ctx.phase("setup"):
            t0 = perf_counter()
            model, train = calibrate_setup(ctx.seed)
            setup_times.append(perf_counter() - t0)
        if indices is not None and model.selection.indices != indices:
            raise RuntimeError("calibrate set-up: tailoring the same data twice selected different axes")
        indices = model.selection.indices

    cfg = tm.CalibrationConfig(mode="parametric_normal", seed=ctx.seed, **CAL_CONFIG)
    thresholds = []
    meter = Meter()

    def one_pass():
        result = meter.time(cfg.replicates, tm.calibrate_threshold, model, train, cfg, threads=1)
        tally.ops(cfg.replicates)
        check_calibration(tally, result, cfg)
        thresholds.append(result.threshold)

    with ctx.phase("timed"):
        timed_passes(ctx.seconds, one_pass)
    if len(set(thresholds)) != 1:
        tally.fail(cfg.replicates, "calibration with one seed gave different thresholds")

    return {
        "setup_s": setup_times,
        "meter": meter,
        "report": {
            "replicates_per_s": (median(meter.rates), "1/s", f"median of {len(meter.rates)} calls of {cfg.replicates} replicates"),
            "n_axes": (model.n_streams, "count", "tailored axes"),
        },
    }


def check_calibration(tally: Tally, result, cfg):
    """Finite maxima, a consistent exceedance count, and the Clopper-Pearson bound within alpha."""
    maxima = np.asarray(result.replicate_maxima)
    bad = int((~np.isfinite(maxima)).sum())
    if bad:
        tally.fail(bad, f"{bad} non-finite replicate maxima")
    exceed = int((maxima >= result.threshold).sum())
    if result.exceedances != exceed:
        tally.fail(cfg.replicates, f"exceedances {result.exceedances} but {exceed} maxima reach the threshold")
    bound = float(beta_dist.ppf(cfg.confidence, exceed + 1, cfg.replicates - exceed))
    if not bound <= cfg.alpha:
        tally.fail(cfg.replicates, f"Clopper-Pearson bound {bound:.4f} exceeds alpha {cfg.alpha}")


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def grid_config(seed: int) -> dict:
    """Grid document, round-tripped through JSON as the simulate CLI reads it."""
    doc = {
        "schema": _fileio.GRID_SCHEMA,
        "seed": seed,
        "dim": DIM,
        "m": 100,
        "n": 100,
        "window": 200,
        "alpha": 0.05,
        "confidence": 0.9,
        "replicates_boot": GRID_BOOT,
        "trial_replicates": GRID_TRIALS,
        "base": {"kind": "matrix", "values": fixed_base().values.tolist()},
        "detectors": [dict(d) for d in GRID_DETECTORS],
        "cells": [dict(c) for c in GRID_CELLS],
    }
    doc = json.loads(json.dumps(doc))
    _fileio.expect_schema(doc, _fileio.GRID_SCHEMA, "<grid>")
    return doc


def run_grid(ctx: Context) -> dict:
    tally = ctx.tally
    setup_times = []

    def setup() -> dict:
        with ctx.phase("setup"):
            t0 = perf_counter()
            doc = grid_config(ctx.seed)
            setup_times.append(perf_counter() - t0)
        return doc

    # Set-up takes milliseconds, a blink of the host's slow and fast spells;
    # a repeat after every pass spreads its samples over the whole run.
    cfg = setup()
    expected_rows = len(GRID_DETECTORS) * len(GRID_CELLS)
    trials = expected_rows * GRID_TRIALS
    outputs = []
    meter = Meter()

    def one_pass():
        # a reference sample after every cell keeps the host's speed tracked through a long call
        rows, manifest = meter.time(trials, tm.simulate_grid, cfg, threads=1, progress=meter.sample)
        tally.ops(trials)
        if manifest:
            tally.fail(len(manifest) * GRID_TRIALS, f"failed cells: {manifest}")
        if len(rows) != expected_rows:
            tally.fail(trials, f"{len(rows)} result rows, expected {expected_rows}")
        outputs.append(json.dumps(rows, sort_keys=True))
        if setup() != cfg:
            tally.fail(trials, "building the grid document twice gave different documents")

    with ctx.phase("timed"):
        timed_passes(ctx.seconds, one_pass)
    while len(setup_times) < SETUP_REPEATS:
        setup()
    if len(set(outputs)) != 1:
        tally.fail(trials, "simulate_grid with one seed gave different rows")

    return {
        "setup_s": setup_times,
        "meter": meter,
        "report": {
            "grid_s": (median(meter.seconds), "s", f"median of {len(meter.seconds)} simulate_grid calls, {trials} trials each"),
        },
    }


WORKLOADS = {"stream": run_stream, "calibrate": run_calibrate, "grid": run_grid}
