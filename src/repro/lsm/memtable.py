"""Memtable: the in-memory write buffer, a sorted list of internal keys.

Two parallel lists in internal-key order: ``_order`` holds each row's
:func:`~repro.util.encoding.internal_order` sort key, which ``bisect``
compares natively, and ``_rows`` the ``(internal_key, value)`` pair that
flush and scans yield as stored.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator

from repro.util.encoding import (
    TYPE_DELETION,
    TYPE_VALUE,
    internal_order,
    make_internal_key,
    parse_internal_key,
)


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
        self._order: list[tuple[bytes, int]] = []
        self._rows: list[tuple[bytes, bytes]] = []
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._rows)

    def approximate_memory_usage(self) -> int:
        """Bytes of key+value payload held (flush-trigger metric)."""
        return self._bytes

    def add(self, sequence: int, value_type: int, user_key: bytes, value: bytes) -> None:
        """Insert a PUT or DELETE entry; raises ``ValueError`` on duplicates."""
        ikey = make_internal_key(user_key, sequence, value_type)
        order = internal_order(ikey)
        at = bisect_left(self._order, order)
        if at < len(self._order) and self._order[at] == order:
            # Unreachable in a healthy store: sequence numbers are unique.
            raise ValueError("duplicate internal key inserted into MemTable")
        self._order.insert(at, order)
        self._rows.insert(at, (ikey, value))
        self._bytes += len(user_key) + len(value) + 16

    def get(self, user_key: bytes, sequence: int) -> GetResult:
        """Newest entry for ``user_key`` visible at ``sequence``."""
        # Seek to the newest entry <= (user_key, sequence): internal order
        # puts higher sequences first, so the lookup key uses `sequence`
        # with the highest type so any entry at that sequence qualifies.
        lookup = internal_order(make_internal_key(user_key, sequence, TYPE_VALUE))
        at = bisect_left(self._order, lookup)
        if at == len(self._order) or self._order[at][0] != user_key:
            return GetResult(GetResult.ABSENT)
        ikey, value = self._rows[at]
        if parse_internal_key(ikey).value_type == TYPE_DELETION:
            return GetResult(GetResult.DELETED)
        return GetResult(GetResult.FOUND, value)

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        """(internal_key, value) pairs in internal-key order."""
        return self.entries()

    def entries(
        self, target: bytes | None = None, *, reverse: bool = False
    ) -> Iterator[tuple[bytes, bytes]]:
        """Entries from internal key ``target`` on, in scan order.

        Forward: entries with internal key >= ``target``, ascending.
        Reverse: entries with internal key < ``target``, descending.
        ``None`` means no bound in either direction. The rows are copied
        (a write-buffer-bounded slice): a scan is a generator its caller
        interleaves with writes, and an index into a list that ``add``
        shifts would skip or repeat rows.
        """
        if target is not None:
            at = bisect_left(self._order, internal_order(target))
        else:
            at = len(self._rows) if reverse else 0
        return reversed(self._rows[:at]) if reverse else iter(self._rows[at:])
