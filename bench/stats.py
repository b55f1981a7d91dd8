"""Percentiles that count failures, and the run-summary statistics.

A request that fails or is refused never met any latency limit, so it
enters every percentile as ``+inf``.  A percentile is reported only when at
least :data:`MIN_BEYOND` samples lie beyond it — p99 needs 1000 samples —
because a tail read from fewer is one or two unlucky requests.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first, by :func:`tail`.
TAIL_LEVELS = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0)


def percentile(values, q: float, failed: int = 0) -> float | None:
    """Nearest-rank ``q``-th percentile of ``values`` plus ``failed`` × +inf.

    Returns None when fewer than :data:`MIN_BEYOND` samples lie beyond the
    percentile (for p99: fewer than 1000 samples), or there are none.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile q must be in (0, 100), got {q}")
    ordered = sorted(values) + [math.inf] * failed
    n = len(ordered)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_BEYOND - 1e-9:
        return None
    return ordered[max(0, math.ceil(q / 100.0 * n) - 1)]


def tail(values, failed: int = 0) -> tuple[float, float] | None:
    """(q, value) of the highest percentile in :data:`TAIL_LEVELS` the sample supports."""
    for q in TAIL_LEVELS:
        value = percentile(values, q, failed)
        if value is not None:
            return q, value
    return None


def median(values, failed: int = 0) -> float:
    """Median with failures counted as +inf; needs at least one sample."""
    ordered = sorted(values) + [math.inf] * failed
    if not ordered:
        raise ValueError("median of no samples")
    return statistics.median(ordered)


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
