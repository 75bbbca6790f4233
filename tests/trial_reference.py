"""Simulated trials one at a time, as a test reference written apart from the stacked trial runner.

``run_trial`` draws a trial's stream, with the base's Cholesky factor
computed afresh, and scans it alone through ``trace_stats`` with the
model's threshold; ``cell_outcomes`` runs a grid cell's trials one after
another with it. This is how ``simulate_grid`` ran its trials before it
scanned them in stacked groups, so the grid's rows can be compared with
those of the per-trial loop. ``trace_stats`` is ``Monitor.feed``, the
library's one-stream scan, of a whole stream from a fresh monitor.
"""

import numpy as np

from tailormon.changemodel import apply_change
from tailormon.evalharness import TrialOutcome, gaussian_rows, scenario_from_cell
from tailormon.mixmonitor import Monitor


def trace_stats(model, rows, threshold: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Step statistics of a stream known in full: ``Monitor.feed`` of its rows from a fresh monitor.

    Returns (stat, argmax_k) in raw time: entry i is raw step i + 1, with
    -inf and -1 where no candidate exists. With ``threshold`` the arrays
    end at the first step whose statistic reaches it.
    """
    if threshold is not None:
        model = model.with_threshold(threshold)
    steps = Monitor(model).feed(rows, stop_on_alarm=threshold is not None)
    return (
        np.array([s.stat for s in steps], dtype=float),
        np.array([-1 if s.argmax_k is None else s.argmax_k for s in steps], dtype=np.int64),
    )


def run_trial(model, base, kappa, scenario, horizon, rng) -> TrialOutcome:
    """One trial: its stream drawn in full, then scanned alone up to its first alarm."""
    chol0 = np.linalg.cholesky(base.values)
    zeros = np.zeros(base.dim)
    if scenario is None:
        stream = gaussian_rows(rng, horizon, zeros, chol0)
    else:
        post = apply_change(base, scenario)
        stream = np.vstack(
            [
                gaussian_rows(rng, kappa, zeros, chol0),
                gaussian_rows(rng, horizon - kappa, post.mean, np.linalg.cholesky(post.cov)),
            ]
        )
    stat, _ = trace_stats(model, stream, model.threshold)
    hits = np.flatnonzero(stat >= model.threshold)
    return TrialOutcome(alarm_time=int(hits[0]) + 1 if hits.size else None, kappa=kappa, horizon=horizon)


def cell_outcomes(model, base, cell, n, horizon, replicates, grid_seed, c_idx) -> list[TrialOutcome]:
    """A grid cell's trials one at a time, each from its (grid seed, cell, replicate) seed."""
    ctype = cell.get("ctype", "h0")
    kappa = int(cell.get("kappa", 0))
    outcomes = []
    for rep in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=[grid_seed, c_idx, rep]))
        if ctype == "h0":
            outcomes.append(run_trial(model, base, 0, None, n, rng))
        else:
            scenario = scenario_from_cell(ctype, int(cell["sparsity"]), float(cell["size"]), base.dim, rng)
            outcomes.append(run_trial(model, base, kappa, scenario, horizon, rng))
    return outcomes
