"""Memtable: the in-memory write buffer, a skiplist of internal keys.

Entries are stored as a single skiplist key encoding both the internal key
and the value (length-prefixed), so the skiplist's ordering over the prefix
is exactly internal-key ordering and lookups need no auxiliary map.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.util.encoding import (
    TYPE_DELETION,
    TYPE_VALUE,
    compare_internal,
    make_internal_key,
    parse_internal_key,
)
from repro.util.skiplist import SkipList
from repro.util.varint import decode_varint, encode_varint


class GetResult:
    """Tri-state lookup outcome: found / deleted / absent."""

    __slots__ = ("state", "value")
    FOUND = "found"
    DELETED = "deleted"
    ABSENT = "absent"

    def __init__(self, state: str, value: bytes | None = None) -> None:
        self.state = state
        self.value = value


def _encode_entry(ikey: bytes, value: bytes) -> bytes:
    # [varint ikey_len][ikey][value] — comparator only inspects the ikey.
    return encode_varint(len(ikey)) + ikey + value


def _decode_entry(entry: bytes) -> tuple[bytes, bytes]:
    ikey_len, pos = decode_varint(entry)
    return entry[pos : pos + ikey_len], entry[pos + ikey_len :]


def _entry_compare(a: bytes, b: bytes) -> int:
    return compare_internal(_decode_entry(a)[0], _decode_entry(b)[0])


class MemTable:
    """Sorted in-memory buffer of the most recent writes."""

    def __init__(self, *, seed: int = 0) -> None:
        self._table = SkipList(comparator=_entry_compare, seed=seed)
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._table)

    def approximate_memory_usage(self) -> int:
        """Bytes of key+value payload held (flush-trigger metric)."""
        return self._bytes

    def add(self, sequence: int, value_type: int, user_key: bytes, value: bytes) -> None:
        """Insert a PUT or DELETE entry."""
        ikey = make_internal_key(user_key, sequence, value_type)
        self._table.insert(_encode_entry(ikey, value))
        self._bytes += len(user_key) + len(value) + 16

    def get(self, user_key: bytes, sequence: int) -> GetResult:
        """Newest entry for ``user_key`` visible at ``sequence``."""
        # Seek to the newest entry <= (user_key, sequence): internal order
        # puts higher sequences first, so the lookup key uses `sequence`
        # with the highest type so any entry at that sequence qualifies.
        lookup = _encode_entry(make_internal_key(user_key, sequence, TYPE_VALUE), b"")
        for entry in self._table.seek(lookup):
            ikey, value = _decode_entry(entry)
            parsed = parse_internal_key(ikey)
            if parsed.user_key != user_key:
                return GetResult(GetResult.ABSENT)
            if parsed.value_type == TYPE_DELETION:
                return GetResult(GetResult.DELETED)
            return GetResult(GetResult.FOUND, value)
        return GetResult(GetResult.ABSENT)

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        """(internal_key, value) pairs in internal-key order."""
        return self.entries()

    def entries(
        self, target: bytes | None = None, *, reverse: bool = False
    ) -> Iterator[tuple[bytes, bytes]]:
        """Entries from internal key ``target`` on, in scan order.

        Forward: entries with internal key >= ``target``, ascending.
        Reverse: entries with internal key < ``target``, descending. The
        skiplist is singly linked — true backward traversal would need
        back-pointers for no practical gain at memtable scale — so the
        (bounded, write-buffer-sized) prefix below ``target`` is
        materialized; a tight-bound reverse scan never touches the
        memtable's tail. ``None`` means no bound in either direction.
        """
        if not reverse:
            if target is None:
                return map(_decode_entry, self._table)
            return map(_decode_entry, self._table.seek(_encode_entry(target, b"")))
        out: list[tuple[bytes, bytes]] = []
        for entry in self._table:
            ikey, value = _decode_entry(entry)
            if target is not None and compare_internal(ikey, target) >= 0:
                break
            out.append((ikey, value))
        return iter(reversed(out))
