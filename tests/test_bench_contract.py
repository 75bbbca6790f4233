"""What the benchmark in ``perfbench/`` reads from the library.

The benchmark rebinds the functions named in ``perfbench/spans.py`` and
calls the kernel and the reference statistic by name, so removing or
reshaping any of them breaks the benchmark while the rest of the suite
stays green. These tests read ``perfbench/`` without changing it.
"""

import importlib.util
import inspect
import io
import sys
import unittest
from pathlib import Path

import numpy as np
import pytest

import tailormon as tm
from tailormon import _kernel
from tailormon.mixmonitor import _BartlettTable

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(spans):
    assert spans.LAYERS
    for name, module, path, kind, _ in spans.LAYERS:
        owner, attr = spans._resolve(module, path)
        fn = getattr(owner, attr, None)
        assert callable(fn), f"{name}: {module}.{path} is missing"
        if kind == "generator":
            assert inspect.isgeneratorfunction(fn), f"{name}: {module}.{path} is not a generator"


def test_names_the_benchmark_reads():
    assert isinstance(tm.USING_COMPILED, bool)
    assert _kernel.scan_step_compiled is None or callable(_kernel.scan_step_compiled)
    for name in (
        "CalibrationConfig",
        "ChangeDistributionSpec",
        "CorrelationMatrix",
        "Monitor",
        "MonitorModel",
        "StreamStats",
        "bartlett_correction",
        "build_monitor_model",
        "calibrate_threshold",
        "estimate_training",
        "identity_selection",
        "mixture_statistic",
        "random_correlation",
        "restore_monitor_model",
        "simulate_grid",
        "stream_llr",
        "tailor",
    ):
        assert hasattr(tm, name), name


def test_scan_step_takes_window_values_fifth_and_returns_three():
    # the benchmark counts cells from args[5] and clamps from result[2]; the
    # running sums before each window time come last
    rng = np.random.default_rng(0)
    m, t, n_streams = 40, 6, 3
    window_vals = np.ascontiguousarray(rng.standard_normal((t, n_streams)))
    sums = np.cumsum(np.stack([window_vals, window_vals * window_vals], axis=1), axis=0)
    args = (
        rng.standard_normal(n_streams),
        m + rng.standard_normal(n_streams),
        m,
        sums[-1, 0],
        sums[-1, 1],
        window_vals,
        t,
        0,
        1.0,
        _BartlettTable().cvals(m, t, 0),
        1e-12,
        np.concatenate([np.zeros((1, 2, n_streams)), sums[:-1]]),
    )
    assert args[5].shape == (t, n_streams)
    result = _kernel.scan_step(*args)
    assert isinstance(result, tuple) and len(result) == 3
    stat, argmax_k, clamped = result
    assert np.isfinite(stat)
    assert 0 <= argmax_k <= t - 2
    assert clamped == 0


def test_tracer_installs_and_restores_every_layer(spans):
    originals = [getattr(*spans._resolve(module, path)) for _, module, path, _, _ in spans.LAYERS]
    with spans.Tracer(spans.SpanRecorder("contract")):
        wrapped = [getattr(*spans._resolve(module, path)) for _, module, path, _, _ in spans.LAYERS]
    restored = [getattr(*spans._resolve(module, path)) for _, module, path, _, _ in spans.LAYERS]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(r is o for r, o in zip(restored, originals))


def test_perfbench_selftest_passes(monkeypatch):
    # the self-test pins how Monitor.step nests the kernel's scan_step; it
    # puts perfbench/ and src/ on sys.path and imports its siblings by name
    monkeypatch.setattr(sys, "path", list(sys.path))
    added = [name for name in ("measure", "spans") if name not in sys.modules]
    try:
        spec = importlib.util.spec_from_file_location("perfbench_selftest", PERFBENCH / "selftest.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        suite = unittest.defaultTestLoader.loadTestsFromModule(module)
        result = unittest.TextTestRunner(stream=io.StringIO(), verbosity=0).run(suite)
    finally:
        for name in added:
            sys.modules.pop(name, None)
    assert result.testsRun > 0
    assert result.wasSuccessful(), result.errors + result.failures
