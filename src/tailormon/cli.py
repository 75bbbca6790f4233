"""Command-line surface: tailor, calibrate, monitor, simulate, verify-props.

Every command is a pure function of its input files, flags and seed, so
reruns are byte-identical. Exit codes: 0 success (or alarm raised),
2 input/schema error, 3 numerical failure (or proposition violations),
4 calibration infeasible, 5 stream ended without an alarm.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import __version__, _fileio
from .calibrate import (
    BLOCK,
    PARAMETRIC,
    CalibrationConfig,
    calibrate_threshold,
)
from .changemodel import ChangeDistributionSpec
from .corrcore import estimate_training
from .errors import (
    ConfigError,
    ConstantColumn,
    DimensionMismatch,
    InsufficientReplicates,
    TailormonError,
)
from .evalharness import simulate_grid, verify_bivariate_propositions
from .mixmonitor import Monitor, build_monitor_model, lag_extend_matrix, restore_monitor_model
from .tailor import tailor as tailor_axes

EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_CALIBRATION = 4
EXIT_NO_ALARM = 5

_INPUT_ERRORS = (ConfigError, DimensionMismatch, ConstantColumn, OSError)

def _fail(code: int, exc: BaseException):
    click.echo(json.dumps({"error": type(exc).__name__, "message": str(exc)}), err=True)
    sys.exit(code)


def _guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InsufficientReplicates as exc:
        _fail(EXIT_CALIBRATION, exc)
    except _INPUT_ERRORS as exc:
        _fail(EXIT_INPUT, exc)
    except TailormonError as exc:
        _fail(EXIT_NUMERIC, exc)
    except (ValueError, KeyError, TypeError) as exc:
        _fail(EXIT_INPUT, exc)


@click.group()
@click.version_option(version=__version__)
def main():
    """Streaming change detection on tailored principal-axis projections."""


@main.command("tailor")
@click.argument("training", type=click.Path(exists=True, dir_okay=False))
@click.argument("change_spec", type=click.Path(exists=True, dir_okay=False))
@click.option("--cutoff", "-c", type=float, required=True, help="Cumulative argmax-probability cutoff in [0, 1].")
@click.option("--draws", "-B", type=int, default=10_000, show_default=True, help="Monte Carlo draws.")
@click.option("--lag", type=int, default=0, show_default=True, help="Lag extension order for autocorrelated data.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "-o", type=click.Path(dir_okay=False), default="selection.json", show_default=True)
def tailor_cmd(training, change_spec, cutoff, draws, lag, seed, out):
    """Select monitoring axes for TRAINING data and a CHANGE_SPEC document."""

    def body():
        data = _fileio.load_matrix_csv(training)
        if data.shape[0] <= lag + 1:
            raise ConfigError(f"need more than lag + 1 = {lag + 1} training rows, got {data.shape[0]}")
        spec = ChangeDistributionSpec.from_dict(_fileio.load_json(change_spec))
        ext = lag_extend_matrix(data, lag)
        summary = estimate_training(ext)
        selection = tailor_axes(summary.corr, spec, cutoff, draws, np.random.default_rng(seed), lag=lag)
        model = build_monitor_model(summary, selection, ext, lag=lag)
        config = {
            "training": training,
            "change_spec": spec.to_dict(),
            "cutoff": cutoff,
            "draws": draws,
            "lag": lag,
            "seed": seed,
        }
        _fileio.dump_json(
            out,
            _fileio.selection_document(summary, selection, model.train_sum, model.train_sumsq, lag, config),
        )
        click.echo(f"selected {selection.n_axes} axes -> {out}")

    _guard(body)


@main.command("calibrate")
@click.argument("training", type=click.Path(exists=True, dir_okay=False))
@click.argument("selection", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha", type=float, required=True, help="Admissible false-alarm probability over the horizon.")
@click.option("--n", "horizon", type=int, required=True, help="Monitoring horizon (monitored steps).")
@click.option("--confidence", type=float, required=True, help="One-sided confidence for the threshold.")
@click.option("--replicates", "-N", type=int, default=2000, show_default=True, help="Bootstrap replicates.")
@click.option(
    "--mode",
    type=click.Choice(["parametric", "block"]),
    default="parametric",
    show_default=True,
    help="parametric: normal replicates from the training summary; block: moving-block resampling.",
)
@click.option("--block-len", type=int, default=None, help="Block length; defaults to max(25, 2*lag + 2).")
@click.option("--p0", type=float, default=1.0, show_default=True, help="Mixture prior used while monitoring.")
@click.option("--window", "-w", type=int, default=200, show_default=True, help="Candidate window size.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threads", type=int, default=None, help="Worker processes (default: TAILORMON_THREADS or 1).")
@click.option("--dump-maxima", type=click.Path(dir_okay=False), default=None, help="Optional CSV of replicate maxima.")
@click.option("--out", "-o", type=click.Path(dir_okay=False), default="calibration.json", show_default=True)
def calibrate_cmd(
    training, selection, alpha, horizon, confidence, replicates, mode, block_len, p0, window, seed, threads, dump_maxima, out
):
    """Calibrate the alarm threshold for TRAINING data and a SELECTION artifact."""

    def body():
        data = _fileio.load_matrix_csv(training)
        doc = _fileio.load_json(selection)
        summary, sel, tr_sum, tr_ssq, raw_dim, lag = _fileio.parse_selection_document(doc, selection)
        if data.shape[1] != raw_dim:
            raise DimensionMismatch(
                f"training has {data.shape[1]} columns but the selection expects raw dimension {raw_dim}"
            )
        mode_name = PARAMETRIC if mode == "parametric" else BLOCK
        cfg = CalibrationConfig(
            alpha=alpha,
            n=horizon,
            confidence=confidence,
            replicates=replicates,
            mode=mode_name,
            block_len=block_len,
            seed=seed,
        )
        model = restore_monitor_model(summary, sel, tr_sum, tr_ssq, p0=p0, window=window, lag=lag)
        result = calibrate_threshold(model, data, cfg, threads=threads)
        config = {
            "training": training,
            "selection": selection,
            "alpha": alpha,
            "n": horizon,
            "confidence": confidence,
            "replicates": replicates,
            "mode": mode_name,
            "block_len": result.block_len,
            "p0": p0,
            "window": window,
            "lag": lag,
            "seed": seed,
        }
        _fileio.dump_json(out, _fileio.calibration_document(result, config))
        if dump_maxima:
            _fileio.save_matrix_csv(dump_maxima, result.replicate_maxima.reshape(-1, 1), header=["max_stat"])
        click.echo(f"threshold {result.threshold:.6g} (exceedance {result.pfa_estimate:.4g}) -> {out}")

    _guard(body)


def _check_width(width: int, raw_dim: int, path: str, line_no: int):
    if width != raw_dim:
        raise DimensionMismatch(f"{path}:{line_no}: stream rows have {width} columns, expected {raw_dim}")


def _step_line(monitor: Monitor, row, path: str, line_no: int):
    """The JSONL line of ``monitor.step(row)`` and its alarm time, or None; a rejected row's error names its line."""
    try:
        res = monitor.step(row)
    except ValueError as exc:
        raise ValueError(f"{path}:{line_no}: {exc}") from None
    return _fileio.step_result_line(res) + "\n", res.t if res.alarm else None


def _fed_lines(monitor: Monitor, rows, lines, path: str, stop_on_alarm: bool):
    """(text, alarm_time) of file rows fed as one block; at a rejected row, the rows before it, then its error."""
    try:
        t_first, short, stat, argmax_k, alarm, clamped = monitor._feed_arrays(rows, stop_on_alarm)
    except ValueError as exc:
        if exc.row:
            yield from _fed_lines(monitor, rows[:exc.row], lines[:exc.row], path, stop_on_alarm)
        raise ValueError(f"{path}:{lines[exc.row]}: {exc}") from None
    alarms = np.flatnonzero(alarm)
    text = _fileio._step_lines(t_first, short, stat, argmax_k, alarm, clamped)
    yield text, (t_first + short + int(alarms[0]) if alarms.size else None)


def _result_lines(monitor: Monitor, source, path: str, raw_dim: int, stop_on_alarm: bool):
    """(text, alarm_time) for runs of the rows of ``source``, in order.

    ``text`` holds the JSONL lines of a run of steps and ``alarm_time``
    is the time of its first alarm, or None. A file is read and fed to
    ``monitor`` a chunk of ``_fileio.CSV_CHUNK_LINES`` lines at a time
    (``_fed_lines``), and a chunk's lines are written from the arrays of
    its scan; stdin is read and stepped one row at a time, so each row's
    line is out as the row arrives. A row of the wrong width raises
    DimensionMismatch naming its line, as the CSV reader's own errors do;
    it can only be the first, since the reader holds every row to the
    first one's width.
    """
    if source is sys.stdin:
        for line_no, row in _fileio.iter_csv_rows(source, path):
            _check_width(row.shape[0], raw_dim, path, line_no)
            yield _step_line(monitor, row, path, line_no)
        return
    for lines, rows in _fileio.iter_csv_chunks(source, path, _fileio.CSV_CHUNK_LINES):
        _check_width(rows.shape[1], raw_dim, path, lines[0])
        yield from _fed_lines(monitor, rows, lines, path, stop_on_alarm)


@main.command("monitor")
@click.argument("stream", type=str)
@click.argument("selection", type=click.Path(exists=True, dir_okay=False))
@click.argument("calibration", type=click.Path(exists=True, dir_okay=False))
@click.option("--p0", type=float, default=None, help="Override the calibrated mixture prior.")
@click.option("--window", "-w", type=int, default=None, help="Override the calibrated window size.")
@click.option("--continue", "continue_", is_flag=True, help="Keep monitoring after the first alarm.")
@click.option("--out", "-o", type=str, default="-", show_default=True, help="JSONL output path, '-' for stdout.")
def monitor_cmd(stream, selection, calibration, p0, window, continue_, out):
    """Monitor STREAM (CSV path or '-' for stdin) with SELECTION and CALIBRATION artifacts."""

    def body():
        sel_doc = _fileio.load_json(selection)
        summary, sel, tr_sum, tr_ssq, raw_dim, lag = _fileio.parse_selection_document(sel_doc, selection)
        cal_doc = _fileio.parse_calibration_document(_fileio.load_json(calibration), calibration)
        cal_cfg = cal_doc["config"]
        if int(cal_cfg.get("lag", lag)) != lag:
            raise ConfigError("selection and calibration artifacts disagree on the lag")
        eff_p0 = p0 if p0 is not None else float(cal_cfg.get("p0", 1.0))
        eff_w = window if window is not None else int(cal_cfg.get("window", 200))
        if p0 is not None or window is not None:
            click.echo("warning: overriding p0/window invalidates the calibrated threshold", err=True)
        model = restore_monitor_model(
            summary, sel, tr_sum, tr_ssq, p0=eff_p0, window=eff_w, lag=lag, threshold=float(cal_doc["threshold"])
        )
        monitor = Monitor(model)
        config = {
            "stream": stream,
            "selection": selection,
            "calibration": calibration,
            "p0": eff_p0,
            "window": eff_w,
            "lag": lag,
            "threshold": float(cal_doc["threshold"]),
            "continue": continue_,
        }
        # the stream first: a stream that cannot be opened leaves --out as it was
        source = sys.stdin if stream == "-" else open(stream, "r", newline="")
        try:
            sink = sys.stdout if out == "-" else open(out, "w")
            try:
                alarm_time = None
                # without --continue a run of lines ends at the first alarm
                for text, alarm_at in _result_lines(monitor, source, stream, raw_dim, stop_on_alarm=not continue_):
                    sink.write(text)
                    if alarm_time is None and alarm_at is not None:
                        alarm_time = alarm_at
                        if not continue_:
                            break
                sink.write(_fileio.run_summary_line(alarm_time, monitor.t, monitor.total_warnings, config) + "\n")
                sink.flush()
            finally:
                if sink is not sys.stdout:
                    sink.close()
        finally:
            if source is not sys.stdin:
                source.close()
        return alarm_time

    alarm_time = _guard(body)
    if alarm_time is None:
        sys.exit(EXIT_NO_ALARM)


@main.command("simulate")
@click.argument("grid", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "-o", type=click.Path(dir_okay=False), default="results.csv", show_default=True)
@click.option("--manifest", type=click.Path(dir_okay=False), default=None, help="Failure manifest path (default: OUT.manifest.json).")
@click.option("--threads", type=int, default=None)
def simulate_cmd(grid, out, manifest, threads):
    """Run the delay/false-alarm grid described by a GRID document."""

    def body():
        doc = _fileio.load_json(grid)
        _fileio.expect_schema(doc, _fileio.GRID_SCHEMA, grid)
        rows, failures = simulate_grid(doc, threads=threads)
        _fileio.save_results_csv(out, rows)
        manifest_path = manifest if manifest else out + ".manifest.json"
        if failures:
            _fileio.dump_json(manifest_path, {"schema": "tailormon/manifest@1", "failures": failures})
            click.echo(f"{len(rows)} rows -> {out}; {len(failures)} failed cells -> {manifest_path}", err=True)
        else:
            click.echo(f"{len(rows)} rows -> {out}")
        return failures

    failures = _guard(body)
    if failures:
        sys.exit(EXIT_NUMERIC)


@main.command("verify-props")
@click.option("--resolution", "-r", type=float, default=0.05, show_default=True)
@click.option("--out", "-o", type=click.Path(dir_okay=False), default="props_report.json", show_default=True)
def verify_props_cmd(resolution, out):
    """Check the bivariate sensitivity orderings on a correlation/size grid."""

    def body():
        report = verify_bivariate_propositions(resolution=resolution)
        doc = {
            "schema": _fileio.PROPS_SCHEMA,
            "tool": _fileio.tool_stamp(),
            "config": {"resolution": resolution},
            **report,
        }
        _fileio.dump_json(out, doc)
        click.echo(f"{report['total_violations']} violations -> {out}")
        return report

    report = _guard(body)
    if report["total_violations"]:
        sys.exit(EXIT_NUMERIC)


if __name__ == "__main__":
    main()
