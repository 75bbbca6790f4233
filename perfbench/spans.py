"""Span recorder and the per-layer wrappers of the traced benchmark run.

Each wrapper replaces one function that a tailormon module exposes to
the layer above it, by rebinding the attribute that callers look up
(every module-level alias of a function, or the class attribute of a
method), so the library itself is not edited. A span records its name,
start, end and parent; spans live in memory in parallel arrays and are
written out once, when the run ends. The wrappers exist only while a
``Tracer`` is installed, which only the traced run does.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter


class SpanRecorder:
    """Spans of one run, kept in memory until ``write``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def __len__(self) -> int:
        return len(self.starts)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self.ends[idx] = perf_counter()
            self.stack.pop()

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        stack = self.stack
        self.name_ids.append(nid)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(counts, args, kwargs, result)`` adds counters."""
        nid = self.name_id(name)
        open_span, ends, stack, counts = self._open, self.ends, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Generator function ``fn`` recording one span per item it produces."""
        nid = self.name_id(name)
        open_span, ends, stack, counts = self._open, self.ends, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = open_span(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = perf_counter()
                        stack.pop()
                    counts[name + ".items"] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def arrays(self):
        """(name ids, starts, ends, parents) as numpy arrays."""
        return (
            np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            np.frombuffer(self.starts, dtype=float).copy(),
            np.frombuffer(self.ends, dtype=float).copy(),
            np.frombuffer(self.parents, dtype=np.int32).copy(),
        )

    def write(self, path: str):
        """Write every span as gzipped CSV: run id, span id, name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=3) as out:
            out.write("run_id,span,name,start_s,end_s,parent\n")
            names, run = self.names, self.run_id
            for i, (nid, s, e, p) in enumerate(zip(self.name_ids, self.starts, self.ends, self.parents)):
                out.write(f"{run},{i},{names[nid]},{s:.9f},{e:.9f},{p}\n")


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so a covered instant is subtracted once.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros(starts.shape[0])
    children = np.nonzero(parents >= 0)[0]
    order = children[np.lexsort((starts[children], parents[children]))]
    cur, lo, hi = -1, 0.0, 0.0
    for i, p, s, e in zip(order.tolist(), parents[order].tolist(), starts[order].tolist(), ends[order].tolist()):
        s = max(s, starts[p])
        e = min(e, ends[p])
        if e <= s:
            continue
        if p != cur:
            if cur >= 0:
                covered[cur] += hi - lo
            cur, lo, hi = p, s, e
        elif s > hi:
            covered[cur] += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if cur >= 0:
        covered[cur] += hi - lo
    return (ends - starts) - covered


def root_of(parents) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root span)."""
    parents = np.asarray(parents, dtype=np.int64)
    roots = np.where(parents >= 0, parents, np.arange(parents.shape[0]))
    while True:
        nxt = roots[roots]
        if np.array_equal(nxt, roots):
            return roots
        roots = nxt


# ---------------------------------------------------------------------------
# Layer boundaries
# ---------------------------------------------------------------------------


def _count_scan(counts, args, kwargs, result):
    rows, cols = args[5].shape
    counts["kernel.scan_step.cells"] += (rows - 1) * cols
    counts["mixmonitor.clamps"] += result[2]


def _count_tailor(counts, args, kwargs, result):
    counts["tailor.tailor.draws"] += result.draws


def _count_trial(counts, args, kwargs, result):
    steps = result.alarm_time if result.alarm_time is not None else result.horizon
    counts["evalharness.run_prepared_trial.steps"] += steps
    counts["evalharness.run_prepared_trial.horizon_share"] += steps / result.horizon


# (span name, defining module, attribute path, kind, counter)
LAYERS = (
    ("kernel.scan_step", "tailormon._kernel", "scan_step", "function", _count_scan),
    ("mixmonitor.Monitor.step", "tailormon.mixmonitor", "Monitor.step", "attribute", None),
    ("mixmonitor.project_observation", "tailormon.mixmonitor", "project_observation", "function", None),
    ("mixmonitor.cvals", "tailormon.mixmonitor", "_BartlettTable.cvals", "attribute", None),
    ("mixmonitor.build_monitor_model", "tailormon.mixmonitor", "build_monitor_model", "function", None),
    ("corrcore.estimate_training", "tailormon.corrcore", "estimate_training", "function", None),
    ("corrcore.eigensystem", "tailormon.corrcore", "eigensystem", "function", None),
    ("calibrate.replicate_maximum", "tailormon.calibrate", "replicate_maximum", "function", None),
    ("calibrate.threshold_from_maxima", "tailormon.calibrate", "threshold_from_maxima", "function", None),
    ("calibrate.block_bootstrap_sample", "tailormon.calibrate", "block_bootstrap_sample", "function", None),
    ("tailor.tailor", "tailormon.tailor", "tailor", "function", _count_tailor),
    ("changemodel.sample_change", "tailormon.changemodel", "sample_change", "function", None),
    ("changemodel.apply_change", "tailormon.changemodel", "apply_change", "function", None),
    ("changemodel.apply_change_lagged", "tailormon.changemodel", "apply_change_lagged", "function", None),
    ("changemodel.projection_sensitivities", "tailormon.changemodel", "projection_sensitivities", "function", None),
    # defined in corrcore; changemodel's change application is its caller
    ("changemodel.nearest_pd_correlation", "tailormon.corrcore", "nearest_pd_correlation", "function", None),
    ("evalharness.run_prepared_trial", "tailormon.evalharness", "run_prepared_trial", "function", _count_trial),
    ("evalharness.build_detector_model", "tailormon.evalharness", "build_detector_model", "function", None),
    ("fileio.iter_csv_rows", "tailormon._fileio", "iter_csv_rows", "generator", None),
    ("fileio.step_result_line", "tailormon._fileio", "step_result_line", "function", None),
    ("cli.tailor", "tailormon.cli", "tailor_cmd.callback", "attribute", None),
    ("cli.calibrate", "tailormon.cli", "calibrate_cmd.callback", "attribute", None),
    ("cli.monitor", "tailormon.cli", "monitor_cmd.callback", "attribute", None),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Installs the layer wrappers on enter and restores the originals on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        rec = self.recorder
        for name, module, path, kind, count in LAYERS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            if kind == "generator":
                wrapper = rec.wrap_generator(name, original)
            else:
                wrapper = rec.wrap(name, original, count)
            if kind == "attribute":
                targets = [(owner, attr)]
            else:
                # every tailormon namespace holding the function, so callers
                # that imported it by name see the wrapper too
                targets = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name == "tailormon" or mod_name.startswith("tailormon.")
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for target, key in targets:
                self._restore.append((target, key, original))
                setattr(target, key, wrapper)
        return self

    def __exit__(self, *exc):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()
        return False


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of recording one span: wrapped minus bare no-op calls."""

    def noop():
        return None

    wrapped = SpanRecorder("calibration").wrap("noop", noop)
    best = None
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        cost = max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
        best = cost if best is None else min(best, cost)
    return best


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric name, unit, better) in the order they are reported
PER_LAYER = (
    ("kernel.scan_step.calls", "count", "lower"),
    ("kernel.scan_step.cells", "count", "lower"),
    ("kernel.scan_step.us_per_call", "us", "lower"),
    ("kernel.scan_step.ns_per_cell", "ns", "lower"),
    ("kernel.scan_step.self_share", "share", "lower"),
    ("mixmonitor.Monitor.step.calls", "count", "lower"),
    ("mixmonitor.Monitor.step.self_us_per_call", "us", "lower"),
    ("mixmonitor.project_observation.us_per_call", "us", "lower"),
    ("mixmonitor.cvals.us_per_call", "us", "lower"),
    ("mixmonitor.build_monitor_model.us_per_call", "us", "lower"),
    ("mixmonitor.clamps", "count", "lower"),
    ("corrcore.estimate_training.us_per_call", "us", "lower"),
    ("corrcore.eigensystem.us_per_call", "us", "lower"),
    ("calibrate.replicate_maximum.calls", "count", "lower"),
    ("calibrate.replicate_maximum.ms_per_call", "ms", "lower"),
    ("calibrate.replicate_maximum.self_share", "share", "lower"),
    ("calibrate.threshold_from_maxima.ms", "ms", "lower"),
    ("calibrate.block_bootstrap_sample.us_per_call", "us", "lower"),
    ("tailor.tailor.s", "s", "lower"),
    ("tailor.tailor.draws_per_s", "1/s", "higher"),
    ("changemodel.sample_change.us_per_call", "us", "lower"),
    ("changemodel.apply_change.us_per_call", "us", "lower"),
    ("changemodel.apply_change_lagged.us_per_call", "us", "lower"),
    ("changemodel.projection_sensitivities.us_per_call", "us", "lower"),
    ("changemodel.nearest_pd_correlation.us_per_call", "us", "lower"),
    ("evalharness.run_prepared_trial.calls", "count", "lower"),
    ("evalharness.run_prepared_trial.ms_per_call", "ms", "lower"),
    ("evalharness.run_prepared_trial.steps_per_trial", "count", "lower"),
    ("evalharness.run_prepared_trial.horizon_share", "share", "lower"),
    ("evalharness.build_detector_model.s", "s", "lower"),
    ("fileio.iter_csv_rows.us_per_row", "us", "lower"),
    ("fileio.step_result_line.us_per_call", "us", "lower"),
    ("cli.tailor.s", "s", "lower"),
    ("cli.calibrate.s", "s", "lower"),
    ("cli.monitor.s", "s", "lower"),
    ("trace.overhead_frac", "share", "lower"),
)

# time scale of each per-call unit
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


def layer_metrics(rec: SpanRecorder, per_span_cost: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters.

    Per-call figures cover every call in the run. A ``self_share`` is the
    layer's self time inside the timed phase over the timed phase's
    duration, so the repeated set-ups do not dilute it; the tracing
    overhead is taken over the whole run. A layer that the workload never
    calls reports 0 calls and 0 time.
    """
    nids, starts, ends, parents = rec.arrays()
    dur = ends - starts
    selft = self_times(starts, ends, parents)
    n_names = len(rec.names)
    calls = np.bincount(nids, minlength=n_names)
    total = np.bincount(nids, weights=dur, minlength=n_names)
    own = np.bincount(nids, weights=selft, minlength=n_names)
    roots = root_of(parents)
    timed = nids[roots] == rec.name_id("bench.timed")
    own_timed = np.bincount(nids[timed], weights=selft[timed], minlength=n_names)
    run_s = float(dur[parents < 0].sum())
    timed_s = float(dur[(parents < 0) & timed].sum())
    counts = rec.counts

    def stat(name):
        nid = rec._name_ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0, 0.0
        return int(calls[nid]), float(total[nid]), float(own[nid]), float(own_timed[nid])

    def per(value, n, scale=1.0):
        return value * scale / n if n else 0.0

    out: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        n, tot, own_s, own_timed_s = stat(layer)
        if kind == "calls":
            value = n
        elif kind == "cells":
            value = counts[name]
        elif kind == "self_share":
            value = own_timed_s / timed_s if timed_s else 0.0
        elif kind == "self_us_per_call":
            value = per(own_s, n, 1e6)
        elif kind == "ns_per_cell":
            value = per(tot, counts["kernel.scan_step.cells"], 1e9)
        elif kind == "us_per_row":
            value = per(tot, counts[layer + ".items"], 1e6)
        elif kind == "draws_per_s":
            value = per(counts["tailor.tailor.draws"], tot)
        elif kind == "steps_per_trial":
            value = per(counts[layer + ".steps"], n)
        elif kind == "horizon_share":
            value = per(counts[name], n)
        elif name == "mixmonitor.clamps":
            value = counts[name]
        elif name == "trace.overhead_frac":
            value = len(rec) * per_span_cost / run_s if run_s else 0.0
        else:  # time per call in the metric's unit
            value = per(tot, n, _SCALE[unit])
        out[name] = float(value)
    return out
