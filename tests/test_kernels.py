import math

import numpy as np
import pytest

from scan_reference import mixture_terms as reference_mixture_terms
from scan_reference import scan_step as reference_step
from tailormon import _kernel
from tailormon.mixmonitor import _BartlettTable


def random_state(rng, n_streams, window, m=150):
    t = int(rng.integers(2, 3 * window))
    kmin = max(0, t - window - 1)
    L = t - kmin
    vals = rng.standard_normal((L, n_streams))
    run = rng.standard_normal((t, n_streams))
    table = _BartlettTable()
    return dict(
        train_sum=rng.standard_normal(n_streams) * 0.3,
        train_sumsq=m + rng.standard_normal(n_streams),
        m=m,
        run_sum=run.sum(axis=0),
        run_sumsq=(run * run).sum(axis=0),
        window_vals=np.ascontiguousarray(vals),
        t=t,
        kmin=kmin,
        p0=float(rng.choice([0.1, 0.5, 1.0])),
        cvals=np.ascontiguousarray(table.cvals(m, t, kmin)),
        var_floor=1e-12,
    )


def call(fn, s):
    return fn(
        s["train_sum"],
        s["train_sumsq"],
        s["m"],
        s["run_sum"],
        s["run_sumsq"],
        s["window_vals"],
        s["t"],
        s["kmin"],
        s["p0"],
        s["cvals"],
        s["var_floor"],
    )


def bitwise(result):
    """A kernel result with the statistic by its bits."""
    stat, k, clamped = result
    return float.hex(stat), k, clamped


def test_kernel_equals_reference_on_random_states():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = random_state(rng, int(rng.integers(1, 12)), int(rng.integers(2, 80)))
        got = call(_kernel.scan_step, s)
        assert bitwise(got) == bitwise(call(reference_step, s))
        assert type(got[0]) is float and type(got[1]) is int and type(got[2]) is int


@pytest.mark.parametrize("n_streams", [7, 8, 9, 16, 17])
def test_kernel_equals_reference_around_eight_streams(n_streams):
    # the cell scan sums each cell's terms left to right below 8 streams and
    # by a contiguous row sum, numpy's 8-way pairwise sum, from 8 on
    rng = np.random.default_rng(n_streams)
    for _ in range(30):
        s = random_state(rng, n_streams, int(rng.integers(2, 60)))
        assert bitwise(call(_kernel.scan_step, s)) == bitwise(call(reference_step, s))


def test_kernel_equals_reference_on_degenerate_values():
    # constant monitoring values force variance clamps
    rng = np.random.default_rng(1)
    s = random_state(rng, 3, 20)
    s["window_vals"] = np.zeros_like(s["window_vals"])
    s["run_sum"] = np.zeros(3)
    s["run_sumsq"] = np.zeros(3)
    got = call(_kernel.scan_step, s)
    assert got[2] > 0
    assert bitwise(got) == bitwise(call(reference_step, s))


def test_python_kernel_deterministic():
    rng = np.random.default_rng(2)
    s = random_state(rng, 4, 30)
    assert call(_kernel.scan_step, s) == call(_kernel.scan_step, s)


def test_mixture_terms_identity_at_p0_one():
    x = np.array([0.0, 0.5, 3.0, 800.0])
    assert np.array_equal(_kernel.mixture_terms(x, 1.0), x)


MIXTURE_EDGES = np.array([-1000.0, -710.0, -1.0, -0.0, 0.0, 5e-324, 1.0, 800.0])


@pytest.mark.parametrize("p0", [0.01, 0.5])
def test_mixture_terms_bitwise_equal_to_reference(p0):
    # the x > 0 form runs on every entry; exp(-x) overflows at -1000 and
    # -710 without a warning, and those entries take the x <= 0 form
    assert _kernel.mixture_terms(MIXTURE_EDGES, p0).tobytes() == reference_mixture_terms(MIXTURE_EDGES, p0).tobytes()
    x = MIXTURE_EDGES.reshape(2, 4)
    assert _kernel.mixture_terms(x, p0).tobytes() == reference_mixture_terms(x, p0).tobytes()


def test_mixture_terms_bitwise_equal_to_reference_at_p0_one():
    # at p0 = 1 the x <= 0 form is log1p(expm1(x)); expm1 rounds to -1 for
    # x below about -37, so both give -inf there, with numpy's divide warning
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        got = _kernel.mixture_terms(MIXTURE_EDGES, 1.0)
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        ref = reference_mixture_terms(MIXTURE_EDGES, 1.0)
    assert got.tobytes() == ref.tobytes()
    assert np.array_equal(got[2:], MIXTURE_EDGES[2:])


def test_mixture_terms_overflow_safe():
    out = _kernel.mixture_terms(np.array([1e4]), 0.25)
    assert out[0] == pytest.approx(1e4 + math.log(0.25), abs=1e-9)
    small = _kernel.mixture_terms(np.array([-40.0]), 0.25)
    assert small[0] == pytest.approx(math.log(1.0 + 0.25 * math.expm1(-40.0)), abs=1e-12)


def test_alternating_pattern_argmax():
    # training and monitoring alternate +-1; candidates k = 0 and k = 2 give
    # exactly zero statistics while k = 1 splits the pattern unevenly and
    # wins
    table = _BartlettTable()
    m, t, w = 50, 4, 10
    kmin = max(0, t - w - 1)
    s = dict(
        train_sum=np.zeros(1),
        train_sumsq=np.full(1, float(m)),
        m=m,
        run_sum=np.zeros(1),
        run_sumsq=np.full(1, float(t)),
        window_vals=np.ascontiguousarray(np.array([[1.0], [-1.0], [1.0], [-1.0]])),
        t=t,
        kmin=kmin,
        p0=1.0,
        cvals=np.ascontiguousarray(table.cvals(m, t, kmin)),
        var_floor=1e-12,
    )
    got = call(_kernel.scan_step, s)
    assert got[1] == 1
    assert got[0] > 0.0
    assert bitwise(got) == bitwise(call(reference_step, s))
