"""Named monotonic counters shared across a store's components.

Every subsystem (devices, caches, compaction, recovery) ticks counters in a
single :class:`CounterSet`, so experiments can read consolidated statistics
— bytes read from cloud, cache hits, compaction bytes — after a workload.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator


class CounterSet:
    """A bag of named integer counters with zero-default semantics."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = defaultdict(int)

    def inc(self, name: str, delta: int = 1) -> None:
        """Increment counter ``name`` by ``delta`` (may be any integer ≥ 0)."""
        if delta < 0:
            raise ValueError(f"counter {name}: negative increment {delta}")
        self._counts[name] += delta

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def reset(self) -> None:
        """Zero every counter (between experiment phases)."""
        self._counts.clear()

    def snapshot(self) -> dict[str, int]:
        """Copy of all counters, for reporting."""
        return dict(self._counts)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(sorted(self._counts.items()))
