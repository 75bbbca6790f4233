"""Simulated trials one at a time, as a test reference written apart from the stacked trial runner.

``run_trial`` draws a trial's stream, with the base's Cholesky factor
computed afresh, and scans it alone through ``trace_stats`` with the
model's threshold; ``cell_outcomes`` runs a grid cell's trials one after
another with it. This is how ``simulate_grid`` ran its trials before it
scanned them in stacked groups, so the grid's rows can be compared with
those of the per-trial loop.
"""

import numpy as np

from tailormon.changemodel import apply_change
from tailormon.evalharness import TrialOutcome, gaussian_rows, scenario_from_cell
from tailormon.mixmonitor import trace_stats


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
