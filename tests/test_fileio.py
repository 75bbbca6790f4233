"""The CSV reader and the JSONL step line against their plain reference forms."""

import io
import json
import math

import numpy as np
import pytest

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


def test_step_result_line_matches_json_dumps():
    rng = np.random.default_rng(0)
    stats = EDGE_STATS + (rng.standard_normal(300) * 10.0 ** rng.integers(-30, 30, 300)).tolist()
    for i, stat in enumerate(stats):
        res = StepResult(
            t=int(rng.choice([1, 2, 77, 10**12, 2**63 + 5])),
            stat=stat,
            argmax_k=None if i % 5 == 0 else int(rng.integers(0, 10**9)),
            alarm=bool(i % 3 == 0),
            warnings=int(rng.choice([0, 1, 3, 10**6])),
        )
        line = _fileio.step_result_line(res)
        assert line == reference_line(res)
        doc = json.loads(line)
        assert doc["stat"] is None or doc["stat"] == stat


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
