import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from tailormon import _fileio
from tailormon.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Training CSV (D=2, rho ~ 0.5), a mean-only change spec, and artifacts."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    z = rng.standard_normal((400, 2))
    x1 = z[:, 0]
    x2 = 0.5 * z[:, 0] + np.sqrt(1 - 0.25) * z[:, 1]
    train = np.column_stack([x1, x2])
    np.savetxt(root / "training.csv", train, delimiter=",", fmt="%.17g", header="s0,s1", comments="")
    (root / "spec.json").write_text(json.dumps({"type_probs": [1.0, 0.0, 0.0]}))

    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "tailor",
            str(root / "training.csv"),
            str(root / "spec.json"),
            "--cutoff",
            "0.9",
            "--draws",
            "2000",
            "--seed",
            "1",
            "--out",
            str(root / "selection.json"),
        ],
    )
    assert res.exit_code == 0, res.output
    res = runner.invoke(
        main,
        [
            "calibrate",
            str(root / "training.csv"),
            str(root / "selection.json"),
            "--alpha",
            "0.05",
            "--n",
            "40",
            "--confidence",
            "0.9",
            "--replicates",
            "400",
            "--window",
            "30",
            "--seed",
            "2",
            "--out",
            str(root / "calibration.json"),
        ],
    )
    assert res.exit_code == 0, res.output
    return root, train


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


class TestTailorCommand:
    def test_selection_concentrates_on_least_varying(self, workdir):
        root, _ = workdir
        doc = json.loads((root / "selection.json").read_text())
        assert doc["schema"] == "tailormon/selection@1"
        assert doc["selection"]["argmax_probs"][1] >= 0.99
        assert 1 in doc["selection"]["indices"]
        assert doc["config"]["cutoff"] == 0.9

    def test_zero_cutoff_selects_single_axis(self, workdir, tmp_path):
        root, _ = workdir
        out = tmp_path / "sel0.json"
        res = invoke(
            "tailor", root / "training.csv", root / "spec.json",
            "--cutoff", 0, "--draws", 500, "--seed", 3, "--out", out,
        )
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert len(doc["selection"]["indices"]) == 1

    def test_byte_identical_rerun(self, workdir, tmp_path):
        root, _ = workdir
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            res = invoke(
                "tailor", root / "training.csv", root / "spec.json",
                "--cutoff", 0.9, "--draws", 800, "--seed", 7, "--out", out,
            )
            assert res.exit_code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_exits_2(self, tmp_path):
        res = invoke("tailor", tmp_path / "nope.csv", tmp_path / "nope.json", "--cutoff", 0.5)
        assert res.exit_code == 2

    def test_negative_lag_exit_2_names_the_lag(self, workdir, tmp_path):
        root, _ = workdir
        res = invoke(
            "tailor", root / "training.csv", root / "spec.json",
            "--cutoff", 0.9, "--lag", -1, "--out", tmp_path / "s.json",
        )
        assert res.exit_code == 2
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert "lag must be non-negative" in err["message"]

    @pytest.mark.parametrize("flags", [("--cutoff", 1.5), ("--cutoff", 0.9, "--draws", 0)])
    def test_bad_cutoff_or_draws_exit_2(self, workdir, tmp_path, flags):
        root, _ = workdir
        res = invoke(
            "tailor", root / "training.csv", root / "spec.json", *flags, "--out", tmp_path / "s.json",
        )
        assert res.exit_code == 2
        assert not (tmp_path / "s.json").exists()

    def test_values_whose_squares_overflow_exit_2(self, workdir, tmp_path):
        # finite values the CSV reader passes, but whose squares overflow:
        # the estimate rejects them before numpy can warn or tailoring runs
        data = np.random.default_rng(5).standard_normal((50, 3))
        data[:, 1] *= 1e200
        np.savetxt(tmp_path / "big.csv", data, delimiter=",", fmt="%.17g")
        out = tmp_path / "s.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = invoke("tailor", tmp_path / "big.csv", workdir[0] / "spec.json", "--cutoff", 0.9, "--out", out)
        assert caught == []
        assert res.exit_code == 2
        assert res.stdout == ""
        assert json.loads(res.stderr) == {
            "error": "ValueError",
            "message": "training data contain values too large: their sums of squares overflow",
        }
        assert not out.exists()


class TestCalibrateCommand:
    def test_artifact_contents(self, workdir):
        root, _ = workdir
        doc = json.loads((root / "calibration.json").read_text())
        assert doc["schema"] == "tailormon/calibration@1"
        assert doc["threshold"] > 0
        assert doc["pfa_estimate"]["estimate"] <= 0.05
        assert doc["config"]["window"] == 30

    def test_quantile_guard_exit_2(self, workdir, tmp_path):
        root, _ = workdir
        res = invoke(
            "calibrate", root / "training.csv", root / "selection.json",
            "--alpha", 0.01, "--n", 100, "--confidence", 0.95,
            "--replicates", 100, "--out", tmp_path / "c.json",
        )
        assert res.exit_code == 2

    def test_block_mode_default_length_echoed(self, workdir, tmp_path):
        root, _ = workdir
        out = tmp_path / "cb.json"
        res = invoke(
            "calibrate", root / "training.csv", root / "selection.json",
            "--alpha", 0.05, "--n", 30, "--confidence", 0.9,
            "--replicates", 300, "--mode", "block", "--seed", 4, "--out", out,
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(out.read_text())
        assert doc["block_len"] == 25
        assert doc["mode"] == "block_bootstrap"

    @pytest.mark.parametrize("mode", ["parametric", "block"])
    def test_threads_give_byte_identical_artifacts(self, workdir, tmp_path, mode):
        root, _ = workdir
        artifacts = []
        for threads in (1, 2):
            out, dump = tmp_path / f"c{threads}.json", tmp_path / f"maxima{threads}.csv"
            res = invoke(
                "calibrate", root / "training.csv", root / "selection.json",
                "--alpha", 0.05, "--n", 30, "--confidence", 0.9, "--replicates", 300,
                "--mode", mode, "--seed", 5, "--threads", threads, "--dump-maxima", dump, "--out", out,
            )
            assert res.exit_code == 0, res.output
            artifacts.append((out.read_bytes(), dump.read_bytes()))
        assert artifacts[0] == artifacts[1]

    def test_bad_thread_count_exit_2(self, workdir, tmp_path):
        root, _ = workdir
        args = [
            "calibrate", root / "training.csv", root / "selection.json",
            "--alpha", 0.05, "--n", 40, "--confidence", 0.9,
            "--replicates", 400, "--out", tmp_path / "c.json",
        ]
        res = invoke(*args, "--threads", "0")
        assert res.exit_code == 2, res.output
        assert json.loads(res.stderr.strip().splitlines()[-1])["error"] == "ConfigError"
        res = CliRunner().invoke(main, [str(a) for a in args], env={"TAILORMON_THREADS": "many"})
        assert res.exit_code == 2, res.output
        assert "TAILORMON_THREADS" in res.stderr
        assert not (tmp_path / "c.json").exists()

    def test_dimension_mismatch_exit_2(self, workdir, tmp_path):
        root, _ = workdir
        bad = tmp_path / "bad.csv"
        np.savetxt(bad, np.zeros((50, 3)), delimiter=",", fmt="%.3f")
        res = invoke(
            "calibrate", bad, root / "selection.json",
            "--alpha", 0.05, "--n", 30, "--confidence", 0.9, "--out", tmp_path / "c.json",
        )
        assert res.exit_code == 2

    def test_infeasible_quantile_exit_4(self, workdir, tmp_path):
        # alpha * replicates passes the config guard but the confidence-
        # adjusted quantile would sit at the sample maximum
        root, _ = workdir
        res = invoke(
            "calibrate", root / "training.csv", root / "selection.json",
            "--alpha", 0.05, "--n", 30, "--confidence", 0.99,
            "--replicates", 100, "--out", tmp_path / "c.json",
        )
        assert res.exit_code == 4


class TestMonitorCommand:
    def make_stream(self, workdir, tmp_path, shift, steps=60, name="stream.csv"):
        # shift applies to the first stream only: the mean-only tailored
        # selection watches the contrast axis, which a common-mode shift
        # would bypass
        _, train = workdir
        rng = np.random.default_rng(11)
        z = rng.standard_normal((steps, 2))
        x1 = z[:, 0] + shift
        x2 = 0.5 * z[:, 0] + np.sqrt(1 - 0.25) * z[:, 1]
        path = tmp_path / name
        np.savetxt(path, np.column_stack([x1, x2]), delimiter=",", fmt="%.17g")
        return path

    def test_null_stream_no_alarm_exit_5(self, workdir, tmp_path):
        root, _ = workdir
        stream = self.make_stream(workdir, tmp_path, shift=0.0)
        out = tmp_path / "alarms.jsonl"
        res = invoke(
            "monitor", stream, root / "selection.json", root / "calibration.json", "--out", out
        )
        assert res.exit_code == 5
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[-1]["censored"] is True
        assert all(not l["alarm"] for l in lines[:-1])
        assert lines[0]["stat"] is None  # t = 1 has no admissible candidate

    def test_shift_alarm_exit_0(self, workdir, tmp_path):
        root, _ = workdir
        stream = self.make_stream(workdir, tmp_path, shift=5.0)
        out = tmp_path / "alarms.jsonl"
        res = invoke(
            "monitor", stream, root / "selection.json", root / "calibration.json", "--out", out
        )
        assert res.exit_code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[-2]["alarm"] is True
        assert lines[-1]["alarm_time"] <= 5

    def test_replay_byte_identical(self, workdir, tmp_path):
        root, _ = workdir
        stream = self.make_stream(workdir, tmp_path, shift=0.0)
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            invoke("monitor", stream, root / "selection.json", root / "calibration.json", "--out", out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_dimension_mismatch_exit_2(self, workdir, tmp_path):
        root, _ = workdir
        bad = tmp_path / "bad_stream.csv"
        np.savetxt(bad, np.zeros((10, 4)), delimiter=",", fmt="%.2f")
        res = invoke("monitor", bad, root / "selection.json", root / "calibration.json", "--out", tmp_path / "o.jsonl")
        assert res.exit_code == 2

    def test_infinite_value_exit_2(self, workdir, tmp_path):
        root, _ = workdir
        bad = tmp_path / "inf.csv"
        bad.write_text("0.1,0.2\n0.3,inf\n0.5,0.6\n")
        res = invoke("monitor", bad, root / "selection.json", root / "calibration.json", "--out", tmp_path / "o.jsonl")
        assert res.exit_code == 2
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ConfigError"
        assert "non-finite" in err["message"]

    def test_continue_flag_keeps_monitoring_past_alarm(self, workdir, tmp_path):
        root, _ = workdir
        stream = self.make_stream(workdir, tmp_path, shift=5.0, steps=30)
        out = tmp_path / "cont.jsonl"
        res = invoke(
            "monitor", stream, root / "selection.json", root / "calibration.json",
            "--continue", "--out", out,
        )
        assert res.exit_code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 31  # all 30 steps plus the summary line
        first_alarm = next(i for i, l in enumerate(lines[:-1]) if l["alarm"])
        assert first_alarm < 29
        assert lines[-1]["alarm_time"] == first_alarm + 1

    def test_constant_stream_hits_clamp_path(self, workdir, tmp_path):
        # a stream frozen at the training mean collapses the post-candidate
        # variance; the clamped path flags warnings and the variance-collapse
        # statistic fires the alarm
        root, _ = workdir
        sel = json.loads((root / "selection.json").read_text())
        mean = np.asarray(sel["training"]["mean"])
        path = tmp_path / "const.csv"
        np.savetxt(path, np.tile(mean, (20, 1)), delimiter=",", fmt="%.17g")
        out = tmp_path / "alarms.jsonl"
        res = invoke("monitor", path, root / "selection.json", root / "calibration.json", "--out", out)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert any(l.get("warnings", 0) > 0 for l in lines[:-1])
        assert res.exit_code in (0, 5)

    def test_missing_stream_leaves_out_as_it_was(self, workdir, tmp_path):
        root, _ = workdir
        out = tmp_path / "out.jsonl"
        out.write_text("keep\n")
        missing = tmp_path / "nope.csv"
        res = invoke("monitor", missing, root / "selection.json", root / "calibration.json", "--out", out)
        assert res.exit_code == 2
        assert out.read_bytes() == b"keep\n"
        assert json.loads(res.stderr.strip().splitlines()[-1]) == {
            "error": "FileNotFoundError",
            "message": f"[Errno 2] No such file or directory: '{missing}'",
        }

    def test_missing_value_exit_2(self, workdir, tmp_path):
        root, _ = workdir
        bad = tmp_path / "missing.csv"
        bad.write_text("0.1,0.2\n0.3,\n")
        res = invoke("monitor", bad, root / "selection.json", root / "calibration.json", "--out", tmp_path / "o.jsonl")
        assert res.exit_code == 2


@pytest.fixture(scope="module")
def lagged_workdir(workdir, tmp_path_factory):
    """Lag-1 selection and calibration artifacts for the same training data."""
    root, train = workdir
    lagged = tmp_path_factory.mktemp("cli_lag1")
    res = invoke(
        "tailor", root / "training.csv", root / "spec.json", "--cutoff", "0.9", "--draws", "1000",
        "--lag", "1", "--seed", "3", "--out", lagged / "selection.json",
    )
    assert res.exit_code == 0, res.output
    res = invoke(
        "calibrate", root / "training.csv", lagged / "selection.json", "--alpha", "0.05", "--n", "40",
        "--confidence", "0.9", "--replicates", "200", "--window", "30", "--mode", "block", "--seed", "4",
        "--out", lagged / "calibration.json",
    )
    assert res.exit_code == 0, res.output
    return lagged


class TestMonitorFileFeed:
    """A monitored file is fed in chunks; it must write what row-by-row stdin monitoring writes."""

    ROWS = 700
    SHIFT_AT = 400

    def stream_text(self, shift, rows=ROWS, shift_at=SHIFT_AT):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((rows, 2))
        x1 = z[:, 0].copy()
        x1[shift_at:] += shift
        x2 = 0.5 * z[:, 0] + np.sqrt(1 - 0.25) * z[:, 1]
        return "\n".join(f"{a!r},{b!r}" for a, b in zip(x1.tolist(), x2.tolist())) + "\n"

    def run_both(self, artifacts, tmp_path, text, *flags):
        """(exit code, JSONL lines, stderr) of the file-fed and the stdin-fed monitor.

        The file's path in the summary line and in error messages reads
        as stdin's '-', so the two runs must agree byte for byte.
        """
        path = tmp_path / "stream.csv"
        path.write_bytes(text.encode())
        outs = []
        for source, stdin in ((path, None), ("-", text)):
            out = tmp_path / f"out-{len(outs)}.jsonl"
            args = ["monitor", source, artifacts / "selection.json", artifacts / "calibration.json", *flags]
            args += ["--out", out]
            res = CliRunner().invoke(main, [str(a) for a in args], input=stdin)
            assert "Warning" not in res.output
            lines = out.read_text().splitlines()
            if lines and lines[-1].startswith('{"alarm_time"'):
                summary = json.loads(lines[-1])
                assert summary["config"]["stream"] == str(source)
                summary["config"]["stream"] = None
                lines[-1] = json.dumps(summary, sort_keys=True)
            outs.append((res.exit_code, lines, res.stderr.replace(f"{path}:", "-:")))
        return outs

    @pytest.mark.parametrize("lag", [0, 1])
    @pytest.mark.parametrize("flags", [(), ("--continue",)])
    @pytest.mark.parametrize("chunk", [None, 10])
    def test_file_equals_stdin(self, workdir, lagged_workdir, tmp_path, monkeypatch, lag, flags, chunk):
        if chunk is not None:
            monkeypatch.setattr(_fileio, "CSV_CHUNK_LINES", chunk)
        artifacts = workdir[0] if lag == 0 else lagged_workdir
        fed, stepped = self.run_both(artifacts, tmp_path, self.stream_text(3.0), *flags)
        assert fed == stepped
        code, lines, _ = fed
        summary = json.loads(lines[-1])
        assert code == 0
        assert summary["alarm_time"] % _fileio.CSV_CHUNK_LINES != 0  # the alarm falls inside a chunk
        assert summary["steps"] == (self.ROWS if flags else summary["alarm_time"])
        assert len(lines) == summary["steps"] + 1

    # a null stream over three default chunks of 1024 lines; its first
    # (false) alarm falls inside the second. A value whose square
    # overflows goes on a line of the second chunk before that alarm, or
    # of the third after it
    @pytest.mark.parametrize("bad_line", [None, 1050, 2300])
    @pytest.mark.parametrize("flags", [(), ("--continue",)])
    def test_long_stream_at_the_default_chunk_size(self, workdir, tmp_path, flags, bad_line):
        assert _fileio.CSV_CHUNK_LINES == 1024
        lines = self.stream_text(0.0, rows=2500).splitlines()
        if bad_line is not None:
            lines[bad_line - 1] = "1e200," + lines[bad_line - 1].split(",")[1]
        fed, stepped = self.run_both(workdir[0], tmp_path, "\n".join(lines) + "\n", *flags)
        assert fed == stepped
        code, out, err = fed
        if bad_line == 1050 or (bad_line is not None and flags):
            assert code == 2
            assert len(out) == bad_line - 1  # every row before the bad one, no summary
            assert json.loads(err.splitlines()[-1])["message"].startswith(f"-:{bad_line}: ")
            return
        summary = json.loads(out[-1])
        assert (code, err) == (0, "")
        first_alarm = next(json.loads(line)["t"] for line in out if '"alarm": true' in line)
        assert 1050 < first_alarm < 2048
        assert summary["alarm_time"] == first_alarm
        assert summary["steps"] == (2500 if flags else first_alarm)
        assert len(out) == summary["steps"] + 1

    # the CSV reader rejects the first four rows; the monitor rejects the
    # last, a finite value whose square overflows
    BAD_ROWS = ["0.3,", "0.3,nan", "1e308,1e308", "0.1,0.2,0.3", "1e200,0.3"]

    # the bad row's index: inside the second chunk, then first and last in it
    @pytest.mark.parametrize("chunk, at", [(256, 300), (1, 1), (7, 7), (7, 13), (256, 256), (256, 511)])
    @pytest.mark.parametrize("flags", [(), ("--continue",)])
    @pytest.mark.parametrize("bad_row", BAD_ROWS)
    def test_bad_row_after_first_chunk(self, workdir, tmp_path, monkeypatch, chunk, at, flags, bad_row):
        monkeypatch.setattr(_fileio, "CSV_CHUNK_LINES", chunk)
        lines = self.stream_text(0.0).splitlines()
        lines[at] = bad_row
        fed, stepped = self.run_both(workdir[0], tmp_path, "\n".join(lines) + "\n", *flags)
        assert fed == stepped
        code, out, err = fed
        assert code == 2
        assert len(out) == at  # every row before the bad one, no summary
        assert json.loads(err.splitlines()[-1])["message"].startswith(f"-:{at + 1}: ")

    # two kinds of bad row in one chunk: a row that overflows the running
    # sums of squares, then a value whose square overflows. The chunk is
    # rejected at the first, where stepping rejects, after the rows before it
    @pytest.mark.parametrize("lag", [0, 1])
    @pytest.mark.parametrize("flags", [(), ("--continue",)])
    def test_two_kinds_of_bad_row_in_one_chunk(self, workdir, lagged_workdir, tmp_path, lag, flags):
        lines = self.stream_text(0.0).splitlines()
        lines[40] = "1e154,0.3"
        lines[45] = "1e200,0.3"
        artifacts = workdir[0] if lag == 0 else lagged_workdir
        fed, stepped = self.run_both(artifacts, tmp_path, "\n".join(lines) + "\n", *flags)
        assert fed == stepped
        code, out, err = fed
        assert (code, len(out)) == (2, 40)  # every row before the bad one, no summary
        assert json.loads(err.splitlines()[-1]) == {
            "error": "ValueError",
            "message": "-:41: observation makes the running sums of squares too large to scan",
        }

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @pytest.mark.parametrize(
        "layout",
        ["header only", "crlf", "no final newline", "blank mid-chunk", "blank, then a bad row", "header, crlf"],
    )
    def test_layouts_equal_stdin(self, workdir, tmp_path, monkeypatch, chunk, layout):
        monkeypatch.setattr(_fileio, "CSV_CHUNK_LINES", chunk)
        lines = self.stream_text(3.0).splitlines()
        end = "\n"
        if layout == "header only":
            lines = ["s0,s1"]
        elif layout == "crlf":
            end = "\r\n"
        elif layout == "header, crlf":
            lines, end = ["s0,s1", *lines], "\r\n"
        elif layout.startswith("blank"):
            mid = chunk + chunk // 2  # inside the second chunk
            lines.insert(mid, "")
            if layout == "blank, then a bad row":
                lines[mid + 3] = "1e200,0.3"
        text = end.join(lines) + ("" if layout == "no final newline" else end)
        fed, stepped = self.run_both(workdir[0], tmp_path, text, "--continue")
        assert fed == stepped
        code, out, err = fed
        if layout == "header only":
            assert (code, len(out), err) == (5, 1, "")
        elif layout == "blank, then a bad row":
            assert code == 2
            assert json.loads(err.splitlines()[-1])["message"].startswith(f"-:{mid + 4}: ")
        else:
            assert (code, len(out), err) == (0, self.ROWS + 1, "")

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @pytest.mark.parametrize("header, line_no", [(None, 1), ("s0,s1,s2", 2)])
    def test_wrong_width_names_the_first_row(self, workdir, tmp_path, monkeypatch, chunk, header, line_no):
        monkeypatch.setattr(_fileio, "CSV_CHUNK_LINES", chunk)
        rows = [f"{i}.5,0.25,-1" for i in range(20)]
        text = "\n".join(rows if header is None else [header, *rows]) + "\n"
        fed, stepped = self.run_both(workdir[0], tmp_path, text)
        assert fed == stepped
        code, out, err = fed
        assert (code, out) == (2, [])
        assert json.loads(err.splitlines()[-1]) == {
            "error": "DimensionMismatch",
            "message": f"-:{line_no}: stream rows have 3 columns, expected 2",
        }

    # a header, then data row 51 holds a value whose square overflows: it
    # sits on file line 52, or 53 below a quoted header that spans two
    # lines, and the monitor's error names that line as the reader would
    @pytest.mark.parametrize("header, line_no", [("s0,s1", 52), ('"s\n0",s1', 53)])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_rejected_row_names_its_line(self, workdir, tmp_path, source, header, line_no):
        lines = self.stream_text(0.0).splitlines()
        lines[50] = "1e200," + lines[50].split(",")[1]
        path = tmp_path / "stream.csv"
        path.write_text("\n".join([header, *lines]) + "\n")
        root = workdir[0]
        out = tmp_path / "out.jsonl"
        stream = path if source == "file" else "-"
        stdin = path.read_text() if source == "stdin" else None
        res = CliRunner().invoke(
            main,
            [str(a) for a in ("monitor", stream, root / "selection.json", root / "calibration.json", "--continue", "--out", out)],
            input=stdin,
        )
        assert res.exit_code == 2
        assert len(out.read_text().splitlines()) == 50  # every row before the bad one, no summary
        err = json.loads(res.stderr.strip().splitlines()[-1])
        assert err["error"] == "ValueError"
        assert err["message"] == f"{stream}:{line_no}: observation contains a non-finite value or one whose square overflows"


class TestSimulateCommand:
    def test_small_grid_deterministic(self, tmp_path):
        grid = {
            "schema": "tailormon/grid@1",
            "seed": 3,
            "dim": 4,
            "m": 60,
            "n": 30,
            "window": 20,
            "alpha": 0.05,
            "confidence": 0.5,
            "replicates_boot": 200,
            "trial_replicates": 100,
            "horizon_mult": 3,
            "detectors": [{"kind": "minpca", "n_axes": 2}],
            "cells": [{"ctype": "h0"}, {"ctype": "mean", "sparsity": 1, "size": 3.0}],
        }
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid))
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            res = invoke("simulate", gpath, "--out", out)
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        header = outs[0].decode().splitlines()[0]
        assert header.startswith("detector,parameter,change_type")
        assert len(outs[0].decode().splitlines()) == 3

    def test_correlation_cell_of_one_variable_exit_3(self, tmp_path):
        # such a cell would run null streams and report them as a correlation change
        grid = {
            "schema": "tailormon/grid@1",
            "seed": 3,
            "dim": 4,
            "m": 60,
            "n": 30,
            "window": 20,
            "alpha": 0.05,
            "confidence": 0.5,
            "trial_replicates": 10,
            "detectors": [{"kind": "minpca", "n_axes": 2, "threshold": 10.0}],
            "cells": [{"ctype": "h0"}, {"ctype": "correlation", "sparsity": 1, "size": 0.5}],
        }
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid))
        out = tmp_path / "r.csv"
        res = invoke("simulate", gpath, "--out", out)
        assert res.exit_code == 3, res.output
        assert len(out.read_text().splitlines()) == 2  # the header and the h0 row
        failures = json.loads((tmp_path / "r.csv.manifest.json").read_text())["failures"]
        assert [f["cell"] for f in failures] == [grid["cells"][1]]
        assert failures[0]["error"] == "ConfigError: a correlation change needs sparsity >= 2"

    def test_zero_trial_replicates_exit_2(self, tmp_path):
        grid = {
            "schema": "tailormon/grid@1",
            "dim": 4,
            "m": 60,
            "n": 20,
            "window": 20,
            "alpha": 0.05,
            "confidence": 0.5,
            "trial_replicates": 0,
            "detectors": [{"kind": "minpca", "n_axes": 2}],
            "cells": [{"ctype": "h0"}, {"ctype": "mean", "sparsity": 1, "size": 2.0}],
        }
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid))
        out = tmp_path / "r.csv"
        res = invoke("simulate", gpath, "--out", out)
        assert res.exit_code == 2, res.output
        assert json.loads(res.stderr.strip().splitlines()[-1])["error"] == "ConfigError"
        assert not out.exists()

    def test_cell_that_is_no_object_exit_2(self, tmp_path):
        # such a cell once built and calibrated every detector, then failed
        # each run of it with an AttributeError (exit 3)
        grid = {
            "schema": "tailormon/grid@1",
            "dim": 3,
            "m": 40,
            "n": 20,
            "window": 10,
            "alpha": 0.05,
            "confidence": 0.5,
            "replicates_boot": 100,
            "trial_replicates": 10,
            "detectors": [{"kind": "minpca", "n_axes": 1}],
            "cells": ["h0"],
        }
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid))
        out = tmp_path / "r.csv"
        res = invoke("simulate", gpath, "--out", out)
        assert res.exit_code == 2, res.output
        assert json.loads(res.stderr.strip().splitlines()[-1])["error"] == "ConfigError"
        assert not out.exists()

    def test_zero_threads_exit_2(self, tmp_path):
        grid = {
            "schema": "tailormon/grid@1",
            "dim": 3,
            "m": 40,
            "n": 20,
            "window": 10,
            "alpha": 0.05,
            "confidence": 0.5,
            "replicates_boot": 100,
            "trial_replicates": 10,
            "detectors": [{"kind": "minpca", "n_axes": 1}],
            "cells": [{"ctype": "h0"}],
        }
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid))
        res = invoke("simulate", gpath, "--threads", "0", "--out", tmp_path / "r.csv")
        assert res.exit_code == 2, res.output
        assert not (tmp_path / "r.csv").exists()

    def test_bad_thread_count_exit_2_without_calibration(self, tmp_path):
        # every detector carries a fixed threshold, so no calibration runs
        grid = {
            "schema": "tailormon/grid@1",
            "dim": 3,
            "m": 40,
            "n": 20,
            "window": 10,
            "alpha": 0.05,
            "confidence": 0.5,
            "trial_replicates": 10,
            "detectors": [{"kind": "minpca", "n_axes": 1, "threshold": 50.0}],
            "cells": [{"ctype": "h0"}],
        }
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps(grid))
        out = tmp_path / "r.csv"
        res = invoke("simulate", gpath, "--threads", "0", "--out", out)
        assert res.exit_code == 2, res.output
        res = CliRunner().invoke(
            main, ["simulate", str(gpath), "--out", str(out)], env={"TAILORMON_THREADS": "bogus"}
        )
        assert res.exit_code == 2, res.output
        assert "TAILORMON_THREADS" in res.stderr
        assert not out.exists()
        assert invoke("simulate", gpath, "--out", out).exit_code == 0

    def test_invalid_grid_exit_2(self, tmp_path):
        gpath = tmp_path / "grid.json"
        gpath.write_text(json.dumps({"schema": "wrong"}))
        res = invoke("simulate", gpath, "--out", tmp_path / "r.csv")
        assert res.exit_code == 2


class TestArtifactFidelity:
    def test_restored_model_matches_in_memory_monitor(self, workdir, tmp_path):
        # floats survive the JSON round trip exactly, so the restored model
        # must reproduce the in-memory monitor bit for bit
        import tailormon as tm
        from tailormon import _fileio
        from tailormon.mixmonitor import Monitor

        root, train = workdir
        summary = tm.estimate_training(train)
        sel = tm.tailor(
            summary.corr,
            tm.ChangeDistributionSpec(type_probs=(1.0, 0.0, 0.0)),
            0.9,
            1000,
            np.random.default_rng(5),
        )
        model = tm.build_monitor_model(summary, sel, train, window=30, threshold=9.0)
        doc = _fileio.selection_document(summary, sel, model.train_sum, model.train_sumsq, 0, config={})
        path = tmp_path / "roundtrip.json"
        _fileio.dump_json(path, doc)
        summary2, sel2, tsum, tssq, raw_dim, lag = _fileio.parse_selection_document(
            json.loads(path.read_text()), str(path)
        )
        restored = tm.restore_monitor_model(
            summary2, sel2, tsum, tssq, window=30, lag=lag, threshold=9.0
        )
        rng = np.random.default_rng(6)
        stream = rng.standard_normal((80, 2))
        a = Monitor(model).run(stream, stop_on_alarm=False)
        b = Monitor(restored).run(stream, stop_on_alarm=False)
        assert [r.stat for r in a.trace] == [r.stat for r in b.trace]
        assert a.alarm_time == b.alarm_time


class TestLaggedBlockPipeline:
    def test_autocorrelated_pipeline_controls_false_alarms(self, tmp_path):
        # AR(1) streams, lag extension, block-bootstrap calibration: the
        # null false-alarm rate honors the target while a variance burst
        # still alarms
        import tailormon as tm
        from tailormon.mixmonitor import Monitor, lag_extend_matrix

        phi, dim, m, n, lag = 0.6, 3, 600, 40, 2

        def ar1(rng, steps, scale=1.0):
            x = np.zeros((steps, dim))
            noise = rng.standard_normal((steps, dim)) * np.sqrt(1 - phi * phi) * scale
            for i in range(1, steps):
                x[i] = phi * x[i - 1] + noise[i]
            return x

        rng = np.random.default_rng(31)
        train = ar1(rng, m)
        ext = lag_extend_matrix(train, lag)
        summary = tm.estimate_training(ext)
        sel = tm.min_variance_selection(tm.eigensystem(summary.corr), 3)
        model = tm.build_monitor_model(summary, sel, ext, window=30, lag=lag)
        cfg = tm.CalibrationConfig(
            alpha=0.05, n=n, confidence=0.9, replicates=400,
            mode="block_bootstrap", block_len=50, seed=32,
        )
        res = tm.calibrate_threshold(model, train, cfg)
        armed = model.with_threshold(res.threshold)
        alarms = 0
        for ss in np.random.SeedSequence(33).spawn(300):
            r = np.random.default_rng(ss)
            run = Monitor(armed).run(ar1(r, n + lag))
            alarms += run.alarmed
        assert alarms / 300 <= 0.1  # within noise of the 0.05 target
        burst = Monitor(armed).run(ar1(np.random.default_rng(34), n + lag, scale=4.0))
        assert burst.alarmed


class TestVerifyPropsCommand:
    def test_default_grid_clean(self, tmp_path):
        out = tmp_path / "props.json"
        res = invoke("verify-props", "--out", out)
        assert res.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "tailormon/props-report@1"
        assert doc["total_violations"] == 0
        assert set(doc["propositions"]) == {"mean", "equal_variances", "one_variance", "correlation"}
        assert all(t["checked"] > 0 for t in doc["propositions"].values())

    @pytest.mark.parametrize("resolution", ["0", "-0.1", "2", "nan"])
    def test_bad_resolution_fails_with_a_json_error(self, tmp_path, resolution):
        out = tmp_path / "props.json"
        res = invoke("verify-props", "-r", resolution, "--out", out)
        assert res.exit_code == 2, res.output
        assert json.loads(res.stderr.strip().splitlines()[-1])["error"] == "ConfigError"
        assert not out.exists()
