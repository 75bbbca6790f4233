"""File formats: CSV matrices/streams and versioned JSON artifacts.

CSV convention: rows are time steps, columns are streams, one optional
header row; missing, non-numeric or non-finite values are a hard error.
JSON artifacts carry a ``schema`` tag, the tool version and the fully
resolved configuration, and are dumped with sorted keys so reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from . import __version__
from .corrcore import CorrelationMatrix, TrainingSummary
from .errors import ConfigError, DimensionMismatch
from .tailor import ProjectionSelection

SELECTION_SCHEMA = "tailormon/selection@1"
CALIBRATION_SCHEMA = "tailormon/calibration@1"
GRID_SCHEMA = "tailormon/grid@1"
PROPS_SCHEMA = "tailormon/props-report@1"
SUMMARY_SCHEMA = "tailormon/monitor-summary@1"


def tool_stamp() -> dict:
    return {"name": "tailormon", "version": __version__}


def _parse_row(fields, path, line_no):
    try:
        return [float(f) for f in fields]
    except ValueError as exc:
        raise ConfigError(f"{path}:{line_no}: non-numeric or missing value ({exc})") from None


def iter_csv_rows(fobj, path: str = "<stream>"):
    """Yield (line, row) for the numeric rows of a CSV stream, skipping one optional header.

    ``line`` is the file line the row ends on (``csv.reader.line_num``),
    which this reader's errors name as ``path:line``; callers reporting
    on the row name the same line.
    """
    reader = csv.reader(fobj)
    width = None
    for record, fields in enumerate(reader):
        line_no = reader.line_num
        fields = [f.strip() for f in fields]
        if not any(fields):  # a blank line
            continue
        if not all(fields):
            raise ConfigError(f"{path}:{line_no}: missing value")
        if record == 0:
            try:
                row = [float(f) for f in fields]
            except ValueError:
                continue  # header row
        else:
            row = _parse_row(fields, path, line_no)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ConfigError(f"{path}:{line_no}: expected {width} columns, got {len(row)}")
        # the sum is finite when every value is, so only a non-finite sum
        # needs the values looked at one by one; a finite row whose sum
        # overflows would overflow the monitor's running sums as well
        if not math.isfinite(sum(row)):
            if all(math.isfinite(v) for v in row):
                raise ConfigError(f"{path}:{line_no}: values too large: their sum overflows")
            raise ConfigError(f"{path}:{line_no}: non-finite value (NaN or infinity)")
        yield line_no, np.asarray(row, dtype=float)


def load_matrix_csv(path: str) -> np.ndarray:
    with open(path, "r", newline="") as fobj:
        rows = [row for _, row in iter_csv_rows(fobj, path)]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return np.vstack(rows)


def save_matrix_csv(path: str, matrix: np.ndarray, header: list[str] | None = None):
    with open(path, "w", newline="") as fobj:
        writer = csv.writer(fobj)
        if header:
            writer.writerow(header)
        for row in np.atleast_2d(matrix):
            writer.writerow([f"{v:.17g}" for v in row])


def dump_json(path: str, doc: dict):
    payload = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with open(path, "w") as fobj:
        fobj.write(payload)


def load_json(path: str) -> dict:
    try:
        with open(path) as fobj:
            return json.load(fobj)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def expect_schema(doc: dict, schema: str, path: str):
    if doc.get("schema") != schema:
        raise ConfigError(f"{path}: expected schema {schema!r}, found {doc.get('schema')!r}")


def selection_document(
    summary: TrainingSummary,
    selection: ProjectionSelection,
    train_sum: np.ndarray,
    train_sumsq: np.ndarray,
    raw_dim: int,
    lag: int,
    config: dict,
) -> dict:
    return {
        "schema": SELECTION_SCHEMA,
        "tool": tool_stamp(),
        "config": config,
        "dim": summary.dim,
        "raw_dim": raw_dim,
        "lag": lag,
        "training": {
            "mean": summary.mean.tolist(),
            "sdev": summary.sdev.tolist(),
            "m": summary.m,
        },
        "selection": {
            "indices": list(selection.indices),
            "eigenvalues": selection.eigenvalues.tolist(),
            "eigenvectors": [selection.eigenvectors[:, i].tolist() for i in range(selection.n_axes)],
            "argmax_probs": selection.argmax_probs.tolist(),
            "mean_sensitivity": selection.mean_sensitivity.tolist(),
            "cutoff": selection.cutoff,
            "draws": selection.draws,
            "identity": selection.identity,
        },
        "training_stream_stats": {
            "sum": np.asarray(train_sum, dtype=float).tolist(),
            "sumsq": np.asarray(train_sumsq, dtype=float).tolist(),
        },
        "diagnostics": {"by_type": selection.by_type},
    }


def parse_selection_document(doc: dict, path: str):
    """(summary, selection, train_sum, train_sumsq, raw_dim, lag) from a selection artifact.

    The stored summary intentionally lacks the full correlation matrix
    (monitoring does not need it); a placeholder identity correlation
    carries the dimension.
    """
    expect_schema(doc, SELECTION_SCHEMA, path)
    try:
        dim = int(doc["dim"])
        raw_dim = int(doc["raw_dim"])
        lag = int(doc["lag"])
        tr = doc["training"]
        summary = TrainingSummary(
            mean=np.asarray(tr["mean"], dtype=float),
            sdev=np.asarray(tr["sdev"], dtype=float),
            corr=CorrelationMatrix(np.eye(dim)),
            m=int(tr["m"]),
        )
        sel = doc["selection"]
        selection = ProjectionSelection(
            indices=tuple(int(i) for i in sel["indices"]),
            eigenvalues=np.asarray(sel["eigenvalues"], dtype=float),
            eigenvectors=np.asarray(sel["eigenvectors"], dtype=float).T,
            argmax_probs=np.asarray(sel["argmax_probs"], dtype=float),
            cutoff=float(sel["cutoff"]),
            draws=int(sel["draws"]),
            mean_sensitivity=np.asarray(sel["mean_sensitivity"], dtype=float),
            identity=bool(sel.get("identity", False)),
        )
        stats = doc["training_stream_stats"]
        train_sum = np.asarray(stats["sum"], dtype=float)
        train_sumsq = np.asarray(stats["sumsq"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed selection document ({exc})") from None
    if selection.dim != dim or dim != raw_dim * (lag + 1):
        raise DimensionMismatch(f"{path}: inconsistent dimensions in selection document")
    return summary, selection, train_sum, train_sumsq, raw_dim, lag


def calibration_document(result, config: dict) -> dict:
    return {
        "schema": CALIBRATION_SCHEMA,
        "tool": tool_stamp(),
        "config": config,
        "threshold": result.threshold,
        "block_len": result.block_len,
        "mode": result.mode,
        "pfa_estimate": {
            "estimate": result.pfa_estimate,
            "ci": [result.pfa_ci[0], result.pfa_ci[1]],
            "exceedances": result.exceedances,
        },
    }


def parse_calibration_document(doc: dict, path: str) -> dict:
    expect_schema(doc, CALIBRATION_SCHEMA, path)
    if "threshold" not in doc or not isinstance(doc.get("config"), dict):
        raise ConfigError(f"{path}: malformed calibration document")
    return doc


def step_result_line(res) -> str:
    """One JSONL line: ``json.dumps`` of the step's fields with sorted keys, written out directly."""
    stat = float(res.stat)
    stat_text = float.__repr__(stat) if math.isfinite(stat) else "null"
    argmax_text = "null" if res.argmax_k is None else int.__repr__(res.argmax_k)
    alarm_text = "true" if res.alarm else "false"
    return (
        f'{{"alarm": {alarm_text}, "argmax_k": {argmax_text}, "stat": {stat_text}, '
        f'"t": {int.__repr__(res.t)}, "warnings": {int.__repr__(res.warnings)}}}'
    )


def run_summary_line(alarm_time, steps: int, warnings: int, config: dict) -> str:
    return json.dumps(
        {
            "schema": SUMMARY_SCHEMA,
            "alarm_time": alarm_time,
            "censored": alarm_time is None,
            "steps": steps,
            "warnings": warnings,
            "config": config,
        },
        sort_keys=True,
        allow_nan=False,
    )


RESULT_COLUMNS = [
    "detector",
    "parameter",
    "change_type",
    "sparsity",
    "p_affected",
    "size",
    "kappa",
    "threshold",
    "replicates",
    "edd",
    "edd_lo",
    "edd_hi",
    "n_detected",
    "n_censored",
    "n_false_alarm",
    "pfa",
    "pfa_lo",
    "pfa_hi",
]


def save_results_csv(path: str, rows: list[dict]):
    with open(path, "w", newline="") as fobj:
        writer = csv.DictWriter(fobj, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in RESULT_COLUMNS})
