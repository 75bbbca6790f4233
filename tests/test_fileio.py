"""The CSV reader and the JSONL step line against their plain reference forms."""

import csv
import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailormon import _fileio
from tailormon.errors import ConfigError
from tailormon.mixmonitor import StepResult


def reference_line(res):
    """The step line as ``json.dumps`` writes it."""
    stat = float(res.stat) if math.isfinite(res.stat) else None
    doc = {"t": res.t, "stat": stat, "argmax_k": res.argmax_k, "alarm": res.alarm, "warnings": res.warnings}
    return json.dumps(doc, sort_keys=True, allow_nan=False)


EDGE_STATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3, -2.5e-10,
              1e16, 123456789.123, math.inf, -math.inf, math.nan]


def step_result_matrix():
    """StepResults over the edge statistics and 300 random ones, with argmax_k None and t up to 2**63 + 5."""
    rng = np.random.default_rng(0)
    stats = EDGE_STATS + (rng.standard_normal(300) * 10.0 ** rng.integers(-30, 30, 300)).tolist()
    return [
        StepResult(
            t=int(rng.choice([1, 2, 77, 10**12, 2**63 + 5])),
            stat=stat,
            argmax_k=None if i % 5 == 0 else int(rng.integers(0, 10**9)),
            alarm=bool(i % 3 == 0),
            warnings=int(rng.choice([0, 1, 3, 10**6])),
        )
        for i, stat in enumerate(stats)
    ]


def test_step_result_line_matches_json_dumps():
    for res in step_result_matrix():
        line = _fileio.step_result_line(res)
        assert line == reference_line(res)
        doc = json.loads(line)
        assert doc["stat"] is None or doc["stat"] == res.stat


def step_arrays(results):
    """``Monitor._feed_arrays``' stat, argmax_k, alarm and clamped arrays of scanned steps."""
    return (
        np.array([res.stat for res in results]),
        np.array([-1 if res.argmax_k is None else res.argmax_k for res in results], dtype=np.int64),
        np.array([res.alarm for res in results]),
        np.array([res.warnings for res in results], dtype=np.int64),
    )


def test_step_lines_match_step_result_line():
    matrix = step_result_matrix()
    assert len(matrix) == 315
    for res in matrix:
        assert _fileio._step_lines(res.t, 0, *step_arrays([res])) == _fileio.step_result_line(res) + "\n"


@pytest.mark.parametrize("short", [0, 1, 3])
@pytest.mark.parametrize("t_first", [1, 10**12, 2**63 - 2])
def test_step_lines_of_a_block_match_step_result_line(t_first, short):
    # a block's steps come at consecutive times; the first ``short`` have no candidate
    matrix = step_result_matrix()
    unscanned = [
        StepResult(t=t_first + i, stat=-math.inf, argmax_k=None, alarm=False, warnings=0) for i in range(short)
    ]
    scanned = [replace(res, t=t_first + short + i) for i, res in enumerate(matrix)]
    head, body = ("".join(_fileio.step_result_line(res) + "\n" for res in block) for block in (unscanned, scanned))
    assert _fileio._step_lines(t_first, short, *step_arrays(scanned)) == head + body
    assert _fileio._step_lines(t_first, short, *step_arrays([])) == head


def rows_of(text):
    return [r.tolist() for _, r in _fileio.iter_csv_rows(io.StringIO(text), "s.csv")]


def test_finite_row_whose_sum_overflows_is_rejected():
    for text, line_no in [
        ("a,b\n1e308,1e308\n", 2),
        ("1,2\n-1e308,-1.7e308\n", 2),
        (",".join(["1"] * 20) + "\n" + ",".join(["1e308"] * 20) + "\n", 2),
    ]:
        with pytest.raises(ConfigError, match=rf"^s\.csv:{line_no}: values too large: their sum overflows$"):
            rows_of(text)


def test_largest_finite_sums_accepted():
    assert rows_of("a,b\n1e308,-1e308\n8e307,8e307\n") == [[1e308, -1e308], [8e307, 8e307]]


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("1,2\n3,nan\n", 2),
        ("1,2\n3,4\ninf,1\n", 3),
        ("x,y\n1e308,-inf\n", 2),
        ("1,2\n\n-inf,inf\n", 3),  # inf - inf: the sum is nan
        ("1e308,1e308,nan\n", 1),
        ('a,"b\nc"\n1,2\n3,inf\n', 4),  # a header field spanning lines 1-2: errors name file lines
    ],
)
def test_non_finite_value_names_its_line(text, line_no):
    with pytest.raises(ConfigError, match=rf"^s\.csv:{line_no}: non-finite value \(NaN or infinity\)$"):
        rows_of(text)


def test_blank_lines_skipped_and_missing_values_rejected():
    assert rows_of("a,b\n1,2\n , \n3,4\n") == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ConfigError, match=r"^s\.csv:2: missing value$"):
        rows_of("1,2\n3, \n")


# fields the chunk reader parses at once: decimal and exponent forms with signs
_PLAIN_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.6e}"),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:E}"),
    st.integers(-(10**20), 10**20).map(str),
    st.integers(0, 999).map(lambda i: f"+{i}"),
    st.sampled_from(["+1.5", "-.5", "5.", "007", "1e5", "1E-5", "+0", "-0", "-0.0", "9.99e299", "1e300",
                     "-1e300", "1e308", "-1.7e308", "4.9e-324", "1e-400"]),
)
# fields it must decline, leaving them to iter_csv_rows
_OTHER_FIELDS = st.sampled_from(["nan", "-inf", "inf", "1e309", "-1e309", "", " ", "x", "1e", "1.2.3", "+-1",
                                 ".", '"1"', '"2,3"', "1_0", "0x1", "١", "1 2", "1 "])
_PADS = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def csv_texts(draw):
    """CSV texts near and off the chunk reader's plain path."""
    width = draw(st.integers(1, 4))
    dirty = draw(st.booleans())

    def field():
        value = draw(_OTHER_FIELDS if dirty and draw(st.integers(0, 9)) == 0 else _PLAIN_FIELDS)
        return draw(_PADS) + value + draw(_PADS)

    lines = []
    header = draw(st.sampled_from([None, None, "a,b", "s0 , s1", '"s\n0",s1', '"a",b', "nan,1", "", " , "]))
    if header is not None:
        lines.append(header)
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.integers(0, 9)) if dirty else 0
        if kind == 1:
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t ", " , ", "\t,"])))
        elif kind == 2:
            lines.append(",".join(field() for _ in range(draw(st.integers(1, 5)))))
        elif kind == 3:
            lines.append(",".join(draw(st.sampled_from(["1e308", "-1.7e308", "9e307"])) for _ in range(width)))
        else:
            lines.append(",".join(field() for _ in range(width)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines)
    if lines and draw(st.booleans()):
        text += end
    return text


def _read_all(rows_of_text):
    """(line, row bytes) pairs read before any error, and the error's type and message."""
    out = []
    try:
        for line_no, row in rows_of_text():
            out.append((line_no, row.tobytes()))
    except Exception as exc:  # the reader's own errors and csv.Error alike
        return out, (type(exc), str(exc))
    return out, None


@settings(max_examples=400, deadline=None)
@given(text=csv_texts())
def test_chunk_reader_reads_what_the_row_reader_reads(text):
    expected = _read_all(lambda: _fileio.iter_csv_rows(io.StringIO(text, newline=""), "s.csv"))
    for size in (1, 2, 7, 1024):

        def chunked_rows():
            for lines, rows in _fileio.iter_csv_chunks(io.StringIO(text, newline=""), "s.csv", size):
                assert rows.dtype == np.float64 and rows.ndim == 2 and len(lines) == rows.shape[0] <= size
                yield from zip(lines, rows)

        assert _read_all(chunked_rows) == expected, size


def test_plain_chunks_are_parsed_at_once(monkeypatch):
    # a header, then plain rows: the row reader sees only the header line
    calls = []
    real = _fileio.iter_csv_rows

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(_fileio, "iter_csv_rows", counted)
    text = "a,b\n" + "".join(f"{i}.5,-{i}e-3\n" for i in range(10))
    chunks = list(_fileio.iter_csv_chunks(io.StringIO(text, newline=""), "s.csv", 4))
    assert [list(lines) for lines, _ in chunks] == [[2, 3, 4, 5], [6, 7, 8, 9], [10, 11]]
    assert calls == [["a,b\n"]]
    # a blank line hands its chunk and the rest of the file to the row reader
    text = "1,2\n3,4\n\n5,6\n7,8\n9,10\n"
    chunks = list(_fileio.iter_csv_chunks(io.StringIO(text, newline=""), "s.csv", 2))
    assert [list(lines) for lines, _ in chunks] == [[1, 2], [4, 5], [6]]
    assert np.vstack([rows for _, rows in chunks]).tolist() == [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]]
    assert len(calls) == 2


@pytest.mark.parametrize("size", [1, 7, 1024])
@pytest.mark.parametrize("blank", [" \n", "\t\r\n", "\n", "\r\n"])
def test_whitespace_only_line_in_a_plain_chunk(size, blank):
    # np.loadtxt would skip an empty line and shift the line numbers after
    # it (and warn on a chunk of nothing else); the chunk goes to the row
    # reader instead
    rows = [f"{i}.25,-{i}e-2\n" for i in range(1500)]
    text = "".join(rows[:500] + [blank] + rows[500:1200] + [blank, blank] + rows[1200:])
    expected = _read_all(lambda: _fileio.iter_csv_rows(io.StringIO(text, newline=""), "s.csv"))
    assert len(expected[0]) == 1500 and expected[1] is None

    def chunked_rows():
        for lines, rows in _fileio.iter_csv_chunks(io.StringIO(text, newline=""), "s.csv", size):
            yield from zip(lines, rows)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _read_all(chunked_rows) == expected
        assert _fileio._parse_lines(["1,2\n", blank, "3,4\n"], None) is None
        assert _fileio._parse_lines([blank], None) is None


@pytest.mark.parametrize("size", [1, 7, 300])
def test_read_error_comes_after_the_rows_before_it(size):
    # the text layer decodes 8192 bytes at a time, so the error surfaces
    # at line 2049, inside a chunk of 7 or 300 lines
    data = b"1,2\n" * 3000 + b"\xff\n3,4\n"
    expected = _read_all(lambda: _fileio.iter_csv_rows(io.TextIOWrapper(io.BytesIO(data), newline=""), "s.csv"))
    assert expected[1][0] is UnicodeDecodeError and len(expected[0]) == 2048

    def chunked_rows():
        for lines, rows in _fileio.iter_csv_chunks(io.TextIOWrapper(io.BytesIO(data), newline=""), "s.csv", size):
            yield from zip(lines, rows)

    assert _read_all(chunked_rows) == expected


@pytest.mark.parametrize(
    "line",
    ["1_0,2\n", "\u0661,2\n", "1,\u20032\n", "nan,1\n", "1,inf\n", "1e300,1\n", "-1e309,1\n", '"1",2\n', "1,,2\n",
     " , \n", "\n", "1,2\r3\n", "1e,2\n", "1.2.3,4\n", "0" * csv.field_size_limit() + "1,2\n"],
)
def test_parse_lines_declines_all_but_plain_decimal_text(line):
    # float() reads some of these, as the row reader does, but only plain
    # decimal text is parsed at once
    assert _fileio._parse_lines(["1,2\n", line], None) is None


def test_field_over_the_csv_limit_fails_as_in_the_row_reader():
    text = "1,2\n" + "0" * csv.field_size_limit() + "1,2\n"
    expected = _read_all(lambda: _fileio.iter_csv_rows(io.StringIO(text, newline=""), "s.csv"))
    assert expected[1][0] is csv.Error

    def chunked_rows():
        for lines, rows in _fileio.iter_csv_chunks(io.StringIO(text, newline=""), "s.csv", 256):
            yield from zip(lines, rows)

    assert _read_all(chunked_rows) == expected


def test_parse_lines_reads_plain_decimal_text_as_float_does():
    lines = [" +1.5e3 ,\t-.5\r\n", "007,5.\n", "-0,9.99e299\r", "4.9e-324,1E-400"]
    rows = _fileio._parse_lines(lines, 2)
    expected = [[float(f) for f in line.split(",")] for line in lines]
    assert rows.tobytes() == np.array(expected).tobytes()
    assert _fileio._parse_lines(lines, 3) is None  # narrower than the rows before
