"""Summary statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for the tail figure, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> dict | None:
    """The highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND
    samples above it, or None when there are too few samples for any."""
    n = len(values)
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_MIN_BEYOND:
            return {"p": p, "value": percentile(values, p)}
    return None


def summary(values) -> dict:
    """Median, tail percentile and sample count of a list of timings."""
    return {"median": statistics.median(values), "tail": tail(values), "n": len(values)}
