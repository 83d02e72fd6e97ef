"""Latency recording with percentile queries.

:class:`LatencyHistogram` keeps samples in geometric buckets (RocksDB's
``HistogramImpl`` approach) so memory stays constant regardless of sample
count while p50/p90/p99 remain accurate to bucket resolution (~4% relative
error with the default growth factor).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field


def _build_bounds(min_value: float, max_value: float, growth: float) -> list[float]:
    bounds = [min_value]
    while bounds[-1] < max_value:
        bounds.append(bounds[-1] * growth)
    return bounds


@dataclass
class LatencyHistogram:
    """Geometric-bucket histogram over positive durations (seconds).

    Args:
        min_value: lower edge of the first bucket; samples below it clamp.
        max_value: samples above the last bucket edge clamp into it.
        growth: bucket-edge growth factor; 1.08 ≈ 4% median relative error.
    """

    min_value: float = 1e-7
    max_value: float = 100.0
    growth: float = 1.08
    _bounds: list[float] = field(default_factory=list, repr=False)
    _counts: list[int] = field(default_factory=list, repr=False)
    count: int = 0
    total: float = 0.0
    min_seen: float = math.inf
    max_seen: float = 0.0

    def __post_init__(self) -> None:
        self._bounds = _build_bounds(self.min_value, self.max_value, self.growth)
        self._counts = [0] * (len(self._bounds) + 1)

    def record(self, seconds: float) -> None:
        """Add one sample."""
        if seconds < 0:
            raise ValueError(f"negative latency {seconds}")
        self.count += 1
        self.total += seconds
        self.min_seen = min(self.min_seen, seconds)
        self.max_seen = max(self.max_seen, seconds)
        # Bucket i holds samples in (bounds[i-1], bounds[i]]; the last one
        # everything past the final bound.
        self._counts[bisect_left(self._bounds, seconds)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100]; 0.0 when empty.

        Returns the upper edge of the bucket containing the p-th sample,
        clamped to the true observed max; ``p == 0`` returns the exact
        observed minimum (a zero threshold would otherwise be satisfied by
        the first — possibly empty — bucket's edge).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if self.count == 0:
            return 0.0
        if p == 0:
            return self.min_seen
        threshold = self.count * p / 100.0
        cumulative = 0
        for idx, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= threshold:
                edge = self._bounds[idx] if idx < len(self._bounds) else self.max_seen
                return min(edge, self.max_seen)
        return self.max_seen

    def summary(self) -> dict[str, float]:
        """Common stats as a dict, convenient for report tables."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "max": self.max_seen if self.count else 0.0,
        }
