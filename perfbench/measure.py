"""Summary statistics for benchmark timings.

A timing is reported as a median plus the highest percentile the
benchmark names, and a percentile is only reported when at least
``MIN_TAIL`` samples lie beyond it; with fewer, its value would be set
by a handful of outliers and would not repeat from run to run.
"""

from __future__ import annotations

import math
import statistics

MIN_TAIL = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def samples_beyond(n: int, q: float) -> int:
    """Samples above the nearest-rank q-th percentile of n samples."""
    rank = math.ceil(round(q * n / 100.0, 9))
    return n - max(rank, 1)


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile; refuses when fewer than MIN_TAIL samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0 or samples_beyond(n, q) < MIN_TAIL:
        raise ValueError(f"p{q:g} needs at least {MIN_TAIL} samples beyond it; have {n} samples in all")
    return float(ordered[n - 1 - samples_beyond(n, q)])
