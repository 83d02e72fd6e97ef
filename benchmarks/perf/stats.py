"""Percentiles on raw samples, and the quartile summary ``compare`` uses."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def _rank(n: int, p: float) -> int:
    """Nearest rank (1-based) of the p-th percentile among ``n`` samples."""
    # rounded first: 99.9 / 100 * 1000 is 999.0000000000001 in floating point
    return max(math.ceil(round(p * n / 100.0, 9)), 1)


def percentile(sorted_samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sample list."""
    if not sorted_samples:
        raise ValueError("no samples")
    return sorted_samples[_rank(len(sorted_samples), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the p-th percentile's rank."""
    return n - _rank(n, p)


def supported_percentile(n: int, *, beyond: int = 10) -> float:
    """The highest of :data:`PERCENTILES` with at least ``beyond`` samples
    above it — a tail read off fewer samples is one outlier, not a tail."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if samples_beyond(n, p) >= beyond:
            best = p
    return best


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
