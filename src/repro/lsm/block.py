"""SSTable block format: prefix-compressed entries with restart points.

LevelDB's block encoding: each entry stores how many leading key bytes it
shares with the previous entry, so sorted keys compress well; every
``restart_interval`` entries a *restart point* stores the full key, and the
block trailer lists restart offsets so :meth:`Block.seek` can ``bisect``.

The same encoding serves data blocks (internal key → value) and index
blocks (separator key → encoded BlockHandle).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterator
from typing import Any

from repro.errors import CorruptionError
from repro.util.encoding import decode_fixed32, encode_fixed32
from repro.util.varint import decode_varint, encode_varint


def _shared_prefix_len(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


class BlockBuilder:
    """Accumulates sorted key/value entries into one encoded block."""

    def __init__(self, restart_interval: int = 16) -> None:
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self.restart_interval = restart_interval
        self._buffer = bytearray()
        self._restarts: list[int] = [0]
        self._counter = 0
        self._last_key = b""
        self.num_entries = 0

    def add(self, key: bytes, value: bytes) -> None:
        """Append an entry; keys must arrive in non-decreasing order."""
        if self._counter >= self.restart_interval:
            self._restarts.append(len(self._buffer))
            self._counter = 0
            shared = 0
        else:
            shared = _shared_prefix_len(self._last_key, key)
        non_shared = len(key) - shared
        self._buffer += encode_varint(shared)
        self._buffer += encode_varint(non_shared)
        self._buffer += encode_varint(len(value))
        self._buffer += key[shared:]
        self._buffer += value
        self._last_key = key
        self._counter += 1
        self.num_entries += 1

    def current_size_estimate(self) -> int:
        """Encoded size if finished now."""
        return len(self._buffer) + 4 * len(self._restarts) + 4

    def empty(self) -> bool:
        return self.num_entries == 0

    def finish(self) -> bytes:
        """Encode restart trailer and return the finished block payload."""
        out = bytearray(self._buffer)
        for offset in self._restarts:
            out += encode_fixed32(offset)
        out += encode_fixed32(len(self._restarts))
        return bytes(out)

    def reset(self) -> None:
        self._buffer.clear()
        self._restarts = [0]
        self._counter = 0
        self._last_key = b""
        self.num_entries = 0


class Block:
    """Read-side view of an encoded block.

    Keys ascend under the sort key ``order`` — in a table,
    :func:`~repro.util.encoding.internal_order`.
    """

    def __init__(self, data: bytes, order: Callable[[bytes], Any]) -> None:
        if len(data) < 4:
            raise CorruptionError("block too small for restart count")
        self._data = data
        self._order = order
        num_restarts = decode_fixed32(data, len(data) - 4)
        trailer = 4 + 4 * num_restarts
        if trailer > len(data):
            raise CorruptionError("restart array larger than block")
        self._restart_base = len(data) - trailer
        self._restarts = [
            decode_fixed32(data, self._restart_base + 4 * i) for i in range(num_restarts)
        ]
        if self._restarts and self._restarts[0] != 0:
            raise CorruptionError("first restart must be at offset 0")

    def _parse_entry(self, offset: int, prev_key: bytes) -> tuple[bytes, bytes, int]:
        """Decode the entry at ``offset``; returns (key, value, next_offset)."""
        shared, pos = decode_varint(self._data, offset)
        non_shared, pos = decode_varint(self._data, pos)
        value_len, pos = decode_varint(self._data, pos)
        if shared > len(prev_key):
            raise CorruptionError("shared prefix longer than previous key")
        key_end = pos + non_shared
        value_end = key_end + value_len
        if value_end > self._restart_base:
            raise CorruptionError("entry overruns block body")
        key = prev_key[:shared] + self._data[pos:key_end]
        value = self._data[key_end:value_end]
        return key, value, value_end

    def _iter_from(self, offset: int, prev_key: bytes) -> Iterator[tuple[bytes, bytes]]:
        while offset < self._restart_base:
            key, value, offset = self._parse_entry(offset, prev_key)
            yield key, value
            prev_key = key

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        """All entries in key order."""
        return self._iter_from(0, b"")

    def seek(self, target: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Entries with key >= ``target`` in the block's key order.

        Binary search over restart points (full keys), then linear scan.
        """
        if not self._restarts:
            return iter(())
        goal = self._order(target)
        # The last restart whose key is < target; restart 0 when none is.
        at = bisect_left(
            self._restarts,
            goal,
            1,
            key=lambda offset: self._order(self._parse_entry(offset, b"")[0]),
        )
        return self._scan_ge(self._restarts[at - 1], goal)

    def _scan_ge(self, offset: int, goal: Any) -> Iterator[tuple[bytes, bytes]]:
        emitting = False
        for key, value in self._iter_from(offset, b""):
            if emitting or self._order(key) >= goal:
                emitting = True
                yield key, value

    def get(self, target: bytes) -> bytes | None:
        """Exact-match lookup (equal sort keys)."""
        for key, value in self.seek(target):
            return value if self._order(key) == self._order(target) else None
        return None
