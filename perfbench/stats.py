"""Order statistics with the sample-count rule the benchmark reports by."""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def nearest_rank(values: list[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) by the nearest-rank method."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - max(1, math.ceil(q * count))


def p90(values: list[float]) -> float:
    """The 90th percentile; refuses when fewer than 10 samples exceed it."""
    beyond = samples_beyond(len(values), 0.9)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p90 of {len(values)} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND}); measure at least 100 operations"
        )
    return nearest_rank(values, 0.9)


def p50(values: list[float]) -> float:
    return statistics.median(values)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median: the steadiness rule."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
