import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scan_reference import block_end as reference_block_end
from scan_reference import kahan_rows
from scan_reference import mixture_terms as reference_mixture_terms
from scan_reference import scan_step as reference_step
from tailormon import _kernel
from tailormon._kernel import _scan_py
from tailormon.mixmonitor import _BartlettTable


def running_sums(run):
    """The sums and sums of squares of the rows of ``run`` over times 1..k, k = 0..t, as (t + 1, 2, J)."""
    sums = np.cumsum(np.stack([run, run * run], axis=1), axis=0)
    return np.concatenate([np.zeros((1, *sums.shape[1:])), sums])


def random_state(rng, n_streams, window, m=150):
    t = int(rng.integers(2, 3 * window))
    kmin = max(0, t - window - 1)
    L = t - kmin
    run = rng.standard_normal((t, n_streams))
    sums = running_sums(run)
    table = _BartlettTable()
    return dict(
        train_sum=rng.standard_normal(n_streams) * 0.3,
        train_sumsq=m + rng.standard_normal(n_streams),
        m=m,
        run_sum=sums[t, 0],
        run_sumsq=sums[t, 1],
        window_vals=np.ascontiguousarray(run[kmin:]),
        t=t,
        kmin=kmin,
        p0=float(rng.choice([0.1, 0.5, 1.0])),
        cvals=np.ascontiguousarray(table.cvals(m, t, kmin)),
        var_floor=1e-12,
        prefix=sums[kmin:t],
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
        s["prefix"],
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
    s["prefix"] = np.zeros_like(s["prefix"])
    got = call(_kernel.scan_step, s)
    assert got[2] > 0
    assert bitwise(got) == bitwise(call(reference_step, s))


@pytest.mark.parametrize("p0", [0.1, 0.5, 1.0])
def test_kernel_equals_reference_where_every_cell_is_negative(p0):
    # training sums no data could give (a sum of squares below sum^2 / m)
    # clamp the pre-change and pooled variances, so every cell's llr is
    # negative and every mixture term takes the x <= 0 form
    rng = np.random.default_rng(3)
    s = random_state(rng, 3, 20)
    s.update(train_sum=np.full(3, 1000.0), train_sumsq=np.zeros(3), p0=p0)
    got = call(_kernel.scan_step, s)
    assert got[0] < 0 and got[2] > 0
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
    # x below about -37, where that form is -inf but the term is x itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernel.mixture_terms(MIXTURE_EDGES, 1.0)
        ref = reference_mixture_terms(MIXTURE_EDGES, 1.0)
    assert got.tobytes() == ref.tobytes()
    assert np.array_equal(got, MIXTURE_EDGES)


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
    run = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    sums = running_sums(run)
    s = dict(
        train_sum=np.zeros(1),
        train_sumsq=np.full(1, float(m)),
        m=m,
        run_sum=sums[t, 0],
        run_sumsq=sums[t, 1],
        window_vals=np.ascontiguousarray(run),
        t=t,
        kmin=kmin,
        p0=1.0,
        cvals=np.ascontiguousarray(table.cvals(m, t, kmin)),
        var_floor=1e-12,
        prefix=sums[:t],
    )
    got = call(_kernel.scan_step, s)
    assert got[1] == 1
    assert got[0] > 0.0
    assert bitwise(got) == bitwise(call(reference_step, s))


@pytest.mark.parametrize("kind", ["normal", "signed_zeros", "wide_range"])
def test_row_sums_equal_numpys_row_sum_for_every_stream_count(kind):
    # the rectangle sums each cell's J terms stream-major, the sweep
    # time-major; the result must be numpy's contiguous (cells, J) row sum
    # bit for bit, through the left to right sum below 8 terms, the 8-way
    # pairwise sum and its split above 128
    from tailormon._kernel._scan_py import _row_sums, _set_sums

    rng = np.random.default_rng(["normal", "signed_zeros", "wide_range"].index(kind))
    for J in range(1, 301):
        x = rng.standard_normal((3, 37, J))
        if kind == "signed_zeros":
            x[rng.random(x.shape) < 0.6] = -0.0
            x[:, :3] = -0.0
        elif kind == "wide_range":
            x *= 10.0 ** rng.uniform(-12, 12, x.shape)
        stream_major = np.ascontiguousarray(x.transpose(0, 2, 1))  # (G, J, cells)
        assert _row_sums(stream_major).tobytes() == x.sum(axis=2).tobytes(), f"J = {J}"
        # and the sweep's sums over its time-major (cells, G * J) terms
        time_major = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(37, 3 * J)
        assert _set_sums(time_major, 3).tobytes() == x.sum(axis=2).T.tobytes(), f"J = {J}"


@pytest.mark.parametrize("growth", [[3000], [5, 600, 513, 2000, 3000], [1100, 40, 3000, 2999]])
def test_h_table_is_read_only_and_holds_h_of_each_length_however_it_grew(monkeypatch, growth):
    # the scans and every monitor share one table; it is swapped for a longer
    # one, never changed, so a table a scan holds stays as it was
    fresh = np.full(2, np.nan)
    fresh.flags.writeable = False
    monkeypatch.setattr(_scan_py, "_H_TABLE", fresh)
    tables = []
    for amax in growth:
        h = _kernel.h_table(amax)
        assert h.shape[0] > amax and not h.flags.writeable
        with pytest.raises(ValueError):
            h[2] = 0.0
        tables.append((h, h.copy()))
    assert all(np.array_equal(h, before, equal_nan=True) for h, before in tables)
    expected = np.array([_scan_py._h(np.array(a)) for a in range(2, 3001)])
    assert h[2:3001].tobytes() == expected.tobytes()
    assert h[2:3001].tobytes() == _scan_py._h(np.arange(2, 3001)).tobytes()


def test_h_table_shared_by_threads_that_grow_it_at_once(monkeypatch):
    # two threads that grow the table at once each build a longer one; the
    # later swap wins, and every table either returns stays valid
    fresh = np.full(2, np.nan)
    fresh.flags.writeable = False
    monkeypatch.setattr(_scan_py, "_H_TABLE", fresh)
    expected = _scan_py._h(np.arange(2, 6001))
    bad = []

    def grow(seed):
        rng = np.random.default_rng(seed)
        for amax in rng.integers(2, 6000, 40).tolist():
            h = _kernel.h_table(amax)
            if h.shape[0] <= amax or h.flags.writeable or h[2:amax + 1].tobytes() != expected[:amax - 1].tobytes():
                bad.append(amax)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []


@pytest.mark.parametrize("p0", [0.01, 0.1, 0.5])
def test_mixture_terms_in_place_equal_the_expression(p0):
    # the p0 < 1 form is computed pass by pass in its output array; each pass
    # is an operation of x + log(p0 + (1 - p0) * exp(-x)), so the bits are the same
    x = np.random.default_rng(3).standard_normal(4000) * 30.0
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.add(x, np.log(p0 + (1.0 - p0) * np.exp(-x)))
    got = _kernel.mixture_terms(x, p0)
    positive = x > 0.0
    assert got[positive].tobytes() == expected[positive].tobytes()
    assert got.tobytes() == reference_mixture_terms(x, p0).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 70),
    sets=st.sampled_from([(), (1,), (2,), (4,)]),
    J=st.integers(1, 20),
    lowest=st.integers(-300, 150),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    cancel=st.booleans(),
)
def test_kahan_equals_the_row_loop_bit_for_bit(seed, n, sets, J, lowest, zeros, cancel):
    # _kahan adds a block of more rows than lanes, and fewer than
    # KAHAN_ROW_VALUES lanes, lane by lane in Python floats and any other
    # block row by row in numpy; either way every total, compensation and
    # per-row total must be the row loop's, signed zeros included
    shape = (2, *sets, min(J, 20 // math.prod(sets)))  # 2 to 40 lanes
    rng = np.random.default_rng(seed)

    def draw(*lead):
        size = (*lead, *shape)
        x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(lowest, 150, size)
        zero = rng.random(size) < zeros
        x[zero] = np.copysign(0.0, x[zero])
        return x

    v = draw(n)
    if cancel:
        # runs that cancel what came before: each odd row undoes the one before
        v[1::2] = -v[0:n - 1:2]
    total, comp = draw(), draw() * 1e-17
    run, expected_run = np.empty(v.shape), np.empty(v.shape)
    got = _scan_py._kahan(total, comp, v, run)
    expected = kahan_rows(total, comp, v, expected_run)
    assert got[0].shape == got[1].shape == shape
    assert got[0].tobytes() == expected[0].tobytes()
    assert got[1].tobytes() == expected[1].tobytes()
    assert run.tobytes() == expected_run.tobytes()
    assert _scan_py._kahan(total, comp, v)[0].tobytes() == expected[0].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lengths=st.integers(1, 40),
    cells=st.integers(1, 30),
    levels=st.integers(1, 4),
    neg_inf=st.floats(0.0, 1.0),
)
def test_running_maximum_picks_what_argmax_over_the_longest_first_picks(seed, lengths, cells, levels, neg_inf):
    # the sweep folds each segment length's statistics into running maxima in
    # increasing length with >=; the rectangle takes np.argmax over the
    # lengths reversed, longest first. Both must pick the same statistic and
    # the same length, the longest among exact ties, -inf entries included
    rng = np.random.default_rng(seed)
    lam = rng.integers(0, levels, (lengths, cells, 2)).astype(float)  # few levels: many exact ties
    lam[rng.random(lam.shape) < neg_inf] = -np.inf
    best = np.full((cells, 2), -np.inf)
    at = np.zeros((cells, 2), dtype=np.int64)
    for i, row in enumerate(lam):
        _scan_py._keep_best(best, at, row, i + 2)  # length n2 = i + 2
    first = lengths - 1 - np.argmax(lam[::-1], axis=0)
    assert best.tobytes() == np.take_along_axis(lam, first[None], axis=0)[0].tobytes()
    assert np.array_equal(at, first + 2)


# (rows, lanes) of the blocks _kahan adds in the perfbench stream,
# calibrate and grid workloads (seeds 1-3), swept or not, and in
# Monitor.step at J = 3
LANE_BY_LANE_BLOCKS = [(7, 6), (27, 6), (43, 8), (1022, 6), (1024, 6)]
ROW_LOOP_BLOCKS = [
    (1, 6), (1, 24), (1, 42), (1, 640), (3, 80), (5, 42), (8, 24), (8, 42), (10, 640), (13, 40), (15, 24),
    (17, 24), (20, 160), (23, 24), (27, 42), (29, 640), (36, 24), (50, 160), (99, 64), (99, 640),
]


def test_kahan_path_follows_the_value_count():
    for rows, lanes in LANE_BY_LANE_BLOCKS:
        assert _scan_py._lane_by_lane(rows, lanes), (rows, lanes)
    for rows, lanes in ROW_LOOP_BLOCKS:
        assert not _scan_py._lane_by_lane(rows, lanes), (rows, lanes)
    # timed alone, 36 x 24 took 105 us lane by lane against 66 us in the row
    # loop, and 1024 x 6 took 750 us against 2030 us
    assert not _scan_py._lane_by_lane(64, 16)
    assert not _scan_py._lane_by_lane(64, _scan_py.KAHAN_ROW_VALUES)
    assert _scan_py._lane_by_lane(3000, 14)


def test_block_end_equals_growing_the_block_one_step_at_a_time():
    steps = _scan_py.TRACE_BLOCK_STEPS
    for window in (2, 25, 200):
        for n_streams in (1, 3, 50, 320):
            one_step = (window - 1) * n_streams  # a full-window block of one step
            for budget in (0, 1, one_step - 1, one_step, 2 * one_step, _scan_py.TRACE_BLOCK_CELLS // 2,
                           _scan_py.TRACE_BLOCK_CELLS, 2 * _scan_py.TRACE_BLOCK_CELLS):
                for t0 in (2, 3, window, window + 1, window + 2, 1000):
                    for T in (t0, t0 + 1, t0 + 5, t0 + steps - 1, t0 + steps, t0 + steps + 1, t0 + 5000):
                        got = _scan_py._block_end(t0, T, n_streams, window, budget)
                        assert got == reference_block_end(t0, T, n_streams, window, budget, steps), \
                            (t0, T, n_streams, window, budget)
