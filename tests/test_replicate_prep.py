"""Stacked replicate preparation against the per-replicate re-fit of ``refit_reference``.

``calibrate_threshold`` draws its bootstrap replicates one by one but
re-estimates, decomposes, builds, checks and scans a batch of them as one
stack.
Every replicate's training sums, projections and maximum must be bytewise
what the per-replicate re-fit gives, and the first failing replicate must
raise exactly what it raises alone, at any worker count.
"""

import numpy as np
import pytest

import refit_reference
from tailormon import (
    CalibrationConfig,
    ConstantColumn,
    DegenerateCorrelation,
    ZeroEigenvalue,
    build_monitor_model,
    calibrate_threshold,
    eigensystem,
    estimate_training,
    identity_selection,
    lag_extend_matrix,
    min_variance_selection,
    random_correlation,
)
from tailormon import calibrate

WINDOW = 200
N = 30


def fitted(raw_dim, m, lag, n_axes, identity, p0=1.0, seed=40):
    """A model on correlated training rows, and the raw rows."""
    rng = np.random.default_rng(seed)
    chol = np.linalg.cholesky(random_correlation(raw_dim, 1.0, rng).values) if raw_dim > 1 else np.eye(1)
    raw = rng.standard_normal((m + lag, raw_dim)) @ chol.T
    ext = lag_extend_matrix(raw, lag)
    summary = estimate_training(ext)
    sel = identity_selection(summary.dim) if identity else min_variance_selection(eigensystem(summary.corr), n_axes)
    return build_monitor_model(summary, sel, ext, p0=p0, window=WINDOW, lag=lag), raw


def draws(model, raw, cfg):
    """The synthetic rows of every replicate of ``cfg``, as ``calibrate_threshold`` draws them."""
    n_raw = cfg.n + model.lag
    if cfg.mode == calibrate.BLOCK:
        draw, shared = calibrate._block_draw, (raw, cfg.block_len or 25)
    else:
        summary = estimate_training(raw)
        chol = np.linalg.cholesky(summary.covariance())
        draw, shared = calibrate._parametric_draw, (summary.mean, chol)
    seeds = np.random.default_rng(cfg.seed).bit_generator.seed_seq.spawn(cfg.replicates)
    replicates = []
    for s in seeds:
        train, mon = np.empty(raw.shape), np.empty((n_raw, raw.shape[1]))
        draw(*shared, s, train, mon)
        replicates.append((train, mon))
    return replicates


def copy_replicate(train, mon):
    """A draw function for ``calibrate._batch_maxima`` that copies replicate i of given rows into its slots."""

    def draw(i, train_slot, mon_slot):
        train_slot[...] = train[i]
        mon_slot[...] = mon[i]

    return draw


def first_failure(model, replicates):
    """Index and error of the first replicate whose re-fit raises alone."""
    for i, (train, mon) in enumerate(replicates):
        try:
            refit_reference.prepare(model, train, mon)
        except (ValueError, ConstantColumn, DegenerateCorrelation, ZeroEigenvalue) as exc:  # LinAlgError too
            return i, exc
    return None, None


# (J, identity, lag): identity monitors every lag-extended column, so its
# raw dimension is J / (lag + 1); manual selections take the J least
# varying of 20 or 24 raw columns' axes. With 300 training rows, 30
# monitoring rows and a window of 200, a batch holds 19 replicates at 20
# lag-extended columns and 9 at 40 when J is 2 or 3, 40 or 27 for the
# identity selections of 2 or 3 columns, and 4 at J = 20. So 50 replicates
# end in a partial batch in every setting.
SETTINGS = [
    (j, identity, lag)
    for j in (2, 3, 20)
    for identity in (False, True)
    for lag in (0, 1)
    if not (identity and j % (lag + 1))
]


@pytest.mark.parametrize("mode", [calibrate.PARAMETRIC, calibrate.BLOCK])
@pytest.mark.parametrize("j, identity, lag", SETTINGS)
def test_stacked_preparation_equals_the_per_replicate_refit(j, identity, lag, mode):
    raw_dim = j // (lag + 1) if identity else (24 if j == 20 else 20)
    model, raw = fitted(raw_dim, 300, lag, j, identity, p0=0.3 if j == 20 else 1.0)
    cfg = CalibrationConfig(alpha=0.5, n=N, confidence=0.5, replicates=50, mode=mode, seed=41)
    replicates = draws(model, raw, cfg)
    got = calibrate._prepared(model, *(np.stack(rows) for rows in zip(*replicates)))
    for i, (train, mon) in enumerate(replicates):
        want = refit_reference.prepare(model, train, mon)
        for name, g, w in zip(("train_sum", "train_sumsq", "z"), got, want):
            assert g[i].tobytes() == w.tobytes(), f"replicate {i}: {name} differs"
    maxima = np.array([refit_reference.replicate_maximum(model, *rows) for rows in replicates])
    assert calibrate.replicate_maximum(model, *replicates[7]) == maxima[7]
    for threads in (1, 2):
        assert calibrate_threshold(model, raw, cfg, threads=threads).replicate_maxima.tobytes() == maxima.tobytes()


def with_spots(base, column, value, spots=(10, 150, 300)):
    """``base`` with ``column`` set to ``value`` except at pairs of rows, where it keeps its own values."""
    raw = base.copy()
    keep = np.zeros(raw.shape[0], dtype=bool)
    for row in spots:
        keep[row:row + 2] = True
    raw[~keep, column] = value[~keep] if np.ndim(value) else value
    return raw


def failing_training(kind, rng):
    """Raw training rows whose block resamples fail with ``kind`` unless they catch one of a few rows."""
    base = rng.standard_normal((400, 6))
    if kind == "constant":
        return with_spots(base, -1, 0.5)
    if kind == "collinear":
        return with_spots(base, -1, base[:, -2])
    if kind == "near_collinear":
        return with_spots(base, -1, base[:, -2] + 1e-5 * rng.standard_normal(400))
    if kind == "short":
        return base[:5]
    if kind == "all_constant":
        base[:, -1] = 0.5
        return base
    base[0] = np.nan
    return base


@pytest.mark.parametrize("lag", [0, 1])
@pytest.mark.parametrize("kind, error", [
    ("constant", ConstantColumn),
    ("all_constant", ConstantColumn),
    ("collinear", DegenerateCorrelation),
    ("short", DegenerateCorrelation),
    ("near_collinear", ZeroEigenvalue),
    ("nan_row", ValueError),
])
def test_first_failing_replicate_raises_what_it_raises_alone(kind, error, lag):
    rng = np.random.default_rng(42)
    model, _ = fitted(6, 400, lag, 2, False, seed=43)
    raw = failing_training(kind, rng)
    block_len = 2 if kind == "short" else 25
    cfg = CalibrationConfig(alpha=0.5, n=N, confidence=0.5, replicates=60, mode=calibrate.BLOCK,
                            block_len=block_len, seed=53)
    index, alone = first_failure(model, draws(model, raw, cfg))
    assert isinstance(alone, error)
    # the failing replicate is not the first, except where every one fails
    assert (index == 0) if kind in ("short", "all_constant") else (0 < index < cfg.replicates)
    for threads in (1, 2):
        with pytest.raises(type(alone)) as raised:
            calibrate_threshold(model, raw, cfg, threads=threads)
        assert str(raised.value) == str(alone)


def spoil(train, mon, kind, rng):
    """Make one replicate's rows fail ``kind``, in place."""
    if kind == "constant":
        train[:, 3] = 1.0
    elif kind == "near_collinear":
        train[:, -1] = train[:, -2] + 1e-5 * rng.standard_normal(train.shape[0])
    elif kind == "nan_row":
        train[40] = np.nan
    elif kind == "nan_cell":
        train[40, 2] = np.nan
    else:
        mon[5, 2] = float(kind)


@pytest.mark.parametrize("faults", [
    {1: "inf", 2: "constant"},
    {1: "1e200", 2: "constant"},
    {1: "1e154", 2: "constant"},
    {1: "near_collinear", 2: "constant"},
    {1: "inf", 2: "nan_row"},
    {1: "nan_row", 2: "constant"},
    {1: "nan_cell", 3: "constant"},
    {2: "constant"},
    {2: "nan_row"},
])
def test_the_first_failing_replicate_of_a_stack_raises(faults):
    # a replicate that fails a late check raises before a later one that
    # fails an early check, as it would before the later one were drawn;
    # a non-finite training value fails its replicate's first check
    model, raw = fitted(6, 400, 1, 2, False, seed=45)
    rng = np.random.default_rng(46)
    train = np.stack([raw[rng.integers(0, 300):][:100] for _ in range(5)])
    mon = rng.standard_normal((5, N + 1, 6))
    for index, kind in faults.items():
        spoil(train[index], mon[index], kind, rng)
    index, alone = first_failure(model, zip(train, mon))
    assert index == min(faults)
    with pytest.raises(type(alone)) as stacked:
        calibrate._batch_maxima(model, copy_replicate(train, mon), (), (train.shape[1], mon.shape[1], 5), range(5))
    assert str(stacked.value) == str(alone)


def test_only_a_failing_batch_is_prepared_again_one_replicate_at_a_time(monkeypatch):
    # a clean batch is one stacked preparation; a failing one is redone
    # replicate by replicate up to its first failing replicate
    model, raw = fitted(6, 400, 1, 2, False, seed=45)
    rng = np.random.default_rng(46)
    train = np.stack([raw[rng.integers(0, 300):][:100] for _ in range(5)])
    mon = rng.standard_normal((5, N + 1, 6))
    plan = (train.shape[1], mon.shape[1], 5)
    sizes = []
    stacked = calibrate._stack_prepared

    def counting(model, train, mon):
        sizes.append(len(train))
        return stacked(model, train, mon)

    monkeypatch.setattr(calibrate, "_stack_prepared", counting)
    calibrate._batch_maxima(model, copy_replicate(train, mon), (), plan, range(5))
    assert sizes == [5]
    sizes.clear()
    spoil(train[3], mon[3], "constant", rng)
    with pytest.raises(ConstantColumn):
        calibrate._batch_maxima(model, copy_replicate(train, mon), (), plan, range(5))
    assert sizes == [5, 1, 1, 1, 1]
