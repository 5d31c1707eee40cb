"""Summary statistics shared by the harness, its reports and `compare`.

Quartiles use :func:`statistics.quantiles` with its default
(exclusive) method, so a spread computed here matches one computed from
the same values with ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# percentiles a latency may be reported at, lowest first
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
# a percentile is only reported when this many samples lie beyond it
MIN_TAIL_SAMPLES = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> dict[str, float | int]:
    """Median, quartiles, extremes and sample count of ``values``."""
    q1, _, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def relative_spread(summary: dict) -> float:
    """Interquartile distance as a share of the median."""
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile, interpolating between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_samples(count: int, p: float) -> float:
    """How many of ``count`` samples lie beyond the ``p``-th percentile."""
    return count * (100.0 - p) / 100.0


def highest_supported_percentile(count: int) -> float | None:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_TAIL_SAMPLES` samples beyond it, or None when even the
    median lacks them."""
    # the tolerance absorbs float error in 100 - p (e.g. p = 99.9)
    supported = [p for p in PERCENTILES
                 if tail_samples(count, p) >= MIN_TAIL_SAMPLES - 1e-9]
    return supported[-1] if supported else None
