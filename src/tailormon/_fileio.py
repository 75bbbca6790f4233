"""File formats: CSV matrices/streams and versioned JSON artifacts.

CSV convention: rows are time steps, columns are streams, one optional
header row; missing, non-numeric or non-finite values are a hard error.
``iter_csv_rows`` reads a stream one row at a time (stdin);
``iter_csv_chunks`` reads a file a chunk of lines at a time, parsing a
chunk of plain decimal rows with one numpy call and reading any other
chunk, and the rest of the file, with ``iter_csv_rows``, so both give
the same values, line numbers and errors. JSON artifacts carry a
``schema`` tag, the tool version and the fully resolved configuration,
and are dumped with sorted keys so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import chain, islice

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


def iter_csv_rows(fobj, path: str = "<stream>", start_line: int = 0, width: int | None = None):
    """Yield (line, row) for the numeric rows of a CSV stream, skipping one optional header.

    ``line`` is the file line the row ends on (``csv.reader.line_num``
    after the ``start_line`` lines that came before ``fobj``), which this
    reader's errors name as ``path:line``; callers reporting on the row
    name the same line. A header is looked for only on the file's first
    line. ``width``, when given, is the width of the rows already read.
    """
    reader = csv.reader(fobj)
    for record, fields in enumerate(reader):
        line_no = start_line + reader.line_num
        fields = [f.strip() for f in fields]
        if not any(fields):  # a blank line
            continue
        if not all(fields):
            raise ConfigError(f"{path}:{line_no}: missing value")
        if record == 0 and start_line == 0:
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


# the only characters of a chunk that ``_parse_lines`` parses: with no
# quote character, a line is one CSV record and its fields split on commas
_PLAIN_CSV = b"0123456789+-.eE, \t\r\n"
# values below this magnitude are finite and no row of them sums to an overflow
_PLAIN_LIMIT = 1e300


def _parse_lines(lines, width):
    """The (n, width) rows of ``lines`` as ``iter_csv_rows`` reads them, or None where it might not.

    ``np.array(fields, dtype=float)`` converts each field with ``float()``,
    as the reader does. A chunk is parsed only when it is plain, so that
    no check of the reader can fire and nothing but decimal numbers
    reaches the conversion: only digits, signs, points, exponents, commas
    and whitespace, no line longer than the csv field limit, no blank
    line or empty field (``float()`` rejects those), every line as wide as
    the rows before, and every value below ``_PLAIN_LIMIT`` in magnitude.
    """
    text = "".join(lines)
    if not text.isascii() or text.encode().translate(None, _PLAIN_CSV):
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        rows = np.array([line.split(",") for line in lines], dtype=float)
    except ValueError:  # a blank line, an empty field, a malformed number or uneven widths
        return None
    if (width is not None and rows.shape[1] != width) or not np.abs(rows).max() < _PLAIN_LIMIT:
        return None
    return rows


def _gathered(numbered, size: int):
    """(lines, rows) chunks of up to ``size`` consecutive (line, row) pairs.

    When reading a row fails, the rows read before it come out as one more
    chunk before the error is raised, so they are monitored and written
    first, as they are when rows are stepped one at a time.
    """
    lines, rows = [], []
    try:
        for line_no, row in numbered:
            lines.append(line_no)
            rows.append(row)
            if len(rows) == size:
                yield lines, np.array(rows)
                lines, rows = [], []
    except Exception:
        if rows:
            yield lines, np.array(rows)
        raise
    if rows:
        yield lines, np.array(rows)


def iter_csv_chunks(fobj, path: str, size: int):
    """Yield (lines, rows) for the numeric rows of a CSV file, ``size`` file lines at a time.

    ``rows`` is an (n, D) array of what ``iter_csv_rows`` yields for those
    lines and ``lines`` the file line of each row. A chunk of plain lines
    is parsed at once (``_parse_lines``); from the first chunk that is not
    plain, the rest of the file is read with ``iter_csv_rows``, so values,
    line numbers, the header and every error come out as it gives them,
    and the rows before an error come out before it is raised. Only one
    chunk of lines is held at a time.
    """
    source = iter(fobj)
    head = list(islice(source, 1))
    if head and _parse_lines(head, None) is None and _skips_first_line(head[0], path):
        done = 1  # file lines before the next chunk
    else:
        source = chain(head, source)
        done = 0
    width = None
    while True:
        lines, rest = [], source
        try:
            for line in islice(source, size):
                lines.append(line)
        except (OSError, ValueError) as exc:  # such as an undecodable byte: the lines before it are read first
            rest, rows = _raising(exc), None
        else:
            if not lines:
                return
            rows = _parse_lines(lines, width)
        if rows is None:
            yield from _gathered(iter_csv_rows(chain(lines, rest), path, start_line=done, width=width), size)
            return
        yield range(done + 1, done + len(lines) + 1), rows
        width = rows.shape[1]
        done += len(lines)


def _skips_first_line(line: str, path: str) -> bool:
    """Whether ``iter_csv_rows`` skips ``line`` as a file's first line: a header or a blank line.

    A line with a quote may begin a record that spans lines; it counts as
    not skipped, and the file is then read with ``iter_csv_rows`` from the
    top, as is a first line that it rejects.
    """
    if '"' in line:
        return False
    try:
        return next(iter_csv_rows([line], path), None) is None
    except (ConfigError, csv.Error):
        return False


def _raising(exc: BaseException):
    """An iterator that raises ``exc`` when read."""
    raise exc
    yield


# lines of a CSV file that load_matrix_csv reads at once
_LOAD_CHUNK_LINES = 256


def load_matrix_csv(path: str) -> np.ndarray:
    with open(path, "r", newline="") as fobj:
        chunks = [rows for _, rows in iter_csv_chunks(fobj, path, _LOAD_CHUNK_LINES)]
    if not chunks:
        raise ConfigError(f"{path}: no data rows")
    return np.vstack(chunks)


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
