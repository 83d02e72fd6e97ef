"""Memtable: the in-memory write buffer, a sorted list of decoded entries.

One list of :data:`~repro.util.encoding.Entry` tuples ``(user_key,
neg_trailer, value)`` in internal-key order. ``bisect`` compares the tuples
natively, and a ``(user_key, neg_trailer)`` goal finds a row because a
2-tuple sorts just before the 3-tuple it prefixes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator

from repro.util.encoding import MAX_SEQUENCE, TYPE_DELETION, Entry, SeekGoal, seek_goal


class GetResult:
    """Tri-state lookup outcome: found / deleted / absent."""

    __slots__ = ("state", "value")
    FOUND = "found"
    DELETED = "deleted"
    ABSENT = "absent"

    def __init__(self, state: str, value: bytes | None = None) -> None:
        self.state = state
        self.value = value


class MemTable:
    """Sorted in-memory buffer of the most recent writes."""

    def __init__(self) -> None:
        self._rows: list[Entry] = []
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._rows)

    def approximate_memory_usage(self) -> int:
        """Bytes of key+value payload held (flush-trigger metric)."""
        return self._bytes

    def add(self, sequence: int, value_type: int, user_key: bytes, value: bytes) -> None:
        """Insert a PUT or DELETE entry; raises ``ValueError`` on duplicates."""
        if not 0 <= sequence <= MAX_SEQUENCE:
            raise ValueError(f"sequence {sequence} out of range")
        rows = self._rows
        goal = (user_key, -((sequence << 8) | value_type))
        at = bisect_left(rows, goal)
        if at < len(rows) and rows[at][:2] == goal:
            # Unreachable in a healthy store: sequence numbers are unique.
            raise ValueError("duplicate internal key inserted into MemTable")
        rows.insert(at, (*goal, value))
        self._bytes += len(user_key) + len(value) + 16

    def get(self, user_key: bytes, sequence: int) -> GetResult:
        """Newest entry for ``user_key`` visible at ``sequence``."""
        # Internal order puts higher sequences first, so the goal sits ahead
        # of the newest entry with a sequence <= `sequence`, whatever its type.
        rows = self._rows
        at = bisect_left(rows, seek_goal(user_key, sequence))
        if at == len(rows) or rows[at][0] != user_key:
            return GetResult(GetResult.ABSENT)
        _, neg_trailer, value = rows[at]
        if -neg_trailer & 0xFF == TYPE_DELETION:
            return GetResult(GetResult.DELETED)
        return GetResult(GetResult.FOUND, value)

    def __iter__(self) -> Iterator[Entry]:
        """Entries in internal-key order."""
        return self.entries()

    def entries(self, goal: SeekGoal | None = None) -> Iterator[Entry]:
        """Entries at or after ``goal``, ascending (``None``: every entry).

        The rows are copied (a write-buffer-bounded slice): a scan is a
        generator its caller interleaves with writes, and an index into a
        list that ``add`` shifts would skip or repeat rows.
        """
        rows = self._rows
        at = bisect_left(rows, goal) if goal is not None else 0
        return iter(rows[at:])
