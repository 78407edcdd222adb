"""Summary statistics shared by the workloads, ``run`` and ``compare``."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; ``values`` need not be sorted."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles``
    gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def geomean(values: list[float]) -> float:
    """Geometric mean, independent of the order of ``values``."""
    if not values:
        return 0.0
    return math.exp(math.fsum(sorted(math.log(v) for v in values)) / len(values))
