"""SSTable block format: prefix-compressed entries with restart points.

LevelDB's block encoding: each entry stores how many leading key bytes it
shares with the previous entry, so sorted keys compress well; every
``restart_interval`` entries a *restart point* stores the full key, and the
block trailer lists restart offsets so :meth:`Block.seek` can ``bisect``.

The same encoding serves data blocks (internal key → value) and index
blocks (separator internal key → encoded BlockHandle). The builder takes
internal-key bytes; the reader splits each key once as it rebuilds it and
hands out :data:`~repro.util.encoding.Entry` tuples, which sort natively.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_left
from collections.abc import Iterable, Iterator

from repro.errors import CorruptionError
from repro.util.encoding import TRAILER, Entry, SeekGoal
from repro.util.varint import decode_varint, encode_varint


_ONE_RESTART = [0]  # shared, never mutated
_ZERO32 = bytes(4)


def _shared_prefix_len(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix, found by one big-integer XOR."""
    n = len(a)
    if n != len(b):
        n = min(n, len(b))
        a, b = a[:n], b[:n]
    diff = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    # The highest set bit of the XOR lies in the first differing byte.
    return n - (diff.bit_length() + 7) // 8


class BlockBuilder:
    """Accumulates sorted key/value entries into one encoded block.

    ``size_estimate`` is the encoded size if finished now (entries, restart
    array, restart count); ``first_key`` and ``last_key`` bound the entries
    taken. :meth:`fill` keeps all of them current, and ``last_key`` outlives
    :meth:`reset` — a table's next block continues after it.
    """

    def __init__(self, restart_interval: int = 16) -> None:
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self.restart_interval = restart_interval
        self._buffer = bytearray()
        self.first_key = self.last_key = b""
        self.reset()

    def fill(self, pairs: Iterable[tuple[bytes, bytes]], limit: int = sys.maxsize) -> bool:
        """Append ``(key, value)`` pairs, keys non-decreasing, until
        ``size_estimate`` reaches ``limit``: True when it did, ``pairs`` left on
        the next pair; False when ``pairs`` ran out.

        The one prefix-compression loop, entered per block and not per entry:
        its state lives in locals, and the previous key is carried as a big
        integer so that two keys of equal length cost one XOR. Whatever
        ``pairs`` raises passes through with every earlier pair in the block.
        """
        buffer = self._buffer
        interval = self.restart_interval
        count = self.num_entries
        size = self.size_estimate
        last_key = self.last_key
        last_len = len(last_key)
        last_int = int.from_bytes(last_key, "big")
        try:
            for key, value in pairs:
                key_len = len(key)
                key_int = int.from_bytes(key, "big")
                if count % interval:
                    if key_len == last_len:
                        # The highest set bit of the XOR lies in the first differing byte.
                        shared = key_len - (((key_int ^ last_int).bit_length() + 7) >> 3)
                    else:
                        shared = _shared_prefix_len(last_key, key)
                else:
                    shared = 0
                    if count:
                        self._restarts.append(len(buffer))
                        size += 4
                    else:
                        self.first_key = key
                non_shared = key_len - shared
                value_len = len(value)
                if shared | non_shared | value_len < 0x80:
                    # A varint below 0x80 is the byte itself: same encoding, no calls.
                    buffer += bytes((shared, non_shared, value_len))
                    size += 3 + non_shared + value_len
                else:
                    header = encode_varint(shared) + encode_varint(non_shared) + encode_varint(value_len)
                    buffer += header
                    size += len(header) + non_shared + value_len
                buffer += key[shared:]
                buffer += value
                count += 1
                last_key, last_len, last_int = key, key_len, key_int
                if size >= limit:
                    return True
            return False
        finally:
            self.num_entries = count
            self.size_estimate = size
            self.last_key = last_key

    def add(self, key: bytes, value: bytes) -> None:
        """Append one entry: a one-pair :meth:`fill`."""
        self.fill(((key, value),))

    def finish(self) -> bytes:
        """Encode restart trailer and return the finished block payload."""
        restarts = self._restarts
        trailer = struct.pack(f"<{len(restarts) + 1}I", *restarts, len(restarts))
        return b"".join((self._buffer, trailer))  # one copy of the entries

    def reset(self) -> None:
        self._buffer.clear()
        self._restarts = [0]
        self.num_entries = 0
        self.size_estimate = 8


class Block:
    """Read-side view of an encoded block of internal keys, ascending."""

    def __init__(self, data: bytes) -> None:
        size = len(data)
        if size < 4:
            raise CorruptionError("block too small for restart count")
        self._data = data
        self.size = size
        """Length of the encoded payload — what a cache holding the block charges."""
        num_restarts = int.from_bytes(data[size - 4 :], "little")
        base = self._restart_base = size - 4 - 4 * num_restarts
        if base < 0:
            raise CorruptionError("restart array larger than block")
        if num_restarts == 1 and data[base : base + 4] == _ZERO32:
            self._restarts = _ONE_RESTART  # a block of up to one restart interval
        else:
            self._restarts = list(struct.unpack_from(f"<{num_restarts}I", data, base))
            if self._restarts and (self._restarts[0] or max(self._restarts) > base):
                raise CorruptionError("restart points must start at 0, inside the entry area")
        self._restart_keys: list[SeekGoal] | None = None
        """Sort keys of the restart points after the first, filled by the first seek."""
        self.runs: dict[int, list[Entry]] | None = None
        """Restart runs a seek has decoded, by restart index. ``None`` — the
        state of every block but one the DRAM cache holds — keeps nothing: a
        block read once (a compaction input, an index walk) must not leave
        its entries behind."""

    def _decode(self, offset: int, stop: int) -> list[Entry]:
        """Decode the entries that start in ``[offset, stop)``.

        ``offset`` is a restart point (the first key is stored whole) and
        ``stop`` is at most the end of the entry area, so the three length
        bytes read ahead always lie inside ``data``.
        """
        data = self._data
        limit = self._restart_base
        trailer_at = TRAILER.unpack_from
        key = b""
        split = -8  # len(key) - 8: where the key's trailer starts
        entries: list[Entry] = []
        while offset < stop:
            shared, non_shared, value_len = data[offset], data[offset + 1], data[offset + 2]
            if shared | non_shared | value_len < 0x80:
                pos = offset + 3  # three one-byte varints
            else:
                shared, pos = decode_varint(data, offset)
                non_shared, pos = decode_varint(data, pos)
                value_len, pos = decode_varint(data, pos)
            if shared > split + 8:
                raise CorruptionError("shared prefix longer than previous key")
            key_end = pos + non_shared
            offset = key_end + value_len
            if offset > limit:
                raise CorruptionError("entry overruns block body")
            key = key[:shared] + data[pos:key_end]
            split = shared + non_shared - 8
            if split < 0:
                raise CorruptionError(f"internal key too short: {split + 8} bytes")
            entries.append((key[:split], -trailer_at(key, split)[0], data[key_end:offset]))
        return entries

    def __iter__(self) -> Iterator[Entry]:
        """All entries in key order."""
        return iter(self._decode(0, self._restart_base))

    def head(self) -> Entry | None:
        """The first entry, decoding none after it (None for an empty block)."""
        return self._decode(0, 1)[0] if self._restart_base else None

    def _run(self, index: int) -> list[Entry]:
        """The entries of restart run ``index`` (1-based: the run that starts
        at ``restarts[index - 1]``), from :attr:`runs` when it is kept."""
        runs = self.runs
        if runs is not None:
            run = runs.get(index)
            if run is not None:
                return run
        restarts = self._restarts
        stop = restarts[index] if index < len(restarts) else self._restart_base
        run = self._decode(restarts[index - 1], stop)
        if runs is not None:
            runs[index] = run
        return run

    def _seek_run(self, goal: SeekGoal) -> int:
        """Index of the one run that can hold the first entry at or after
        ``goal``: the last whose restart key is < goal, the first when none is.

        The first seek decodes the (full) key at every restart point after
        the first into a list of sort keys the block keeps; a seek is then
        one native ``bisect_left`` over that list plus one restart run
        decoded at a time, so a point lookup pays for one run.
        """
        keys = self._restart_keys
        if keys is None:
            decode = self._decode
            keys = self._restart_keys = [decode(at, at + 1)[0][:2] for at in self._restarts[1:]]
        return bisect_left(keys, goal) + 1

    def seek(self, goal: SeekGoal) -> Iterator[Entry]:
        """Entries at or after ``goal`` in internal-key order. Entries
        past a restart point are decoded only when their run is reached."""
        if not self._restarts:
            return
        emitting = False
        for index in range(self._seek_run(goal), len(self._restarts) + 1):
            run = self._run(index)
            if not emitting:
                # A goal sorts just before the entry it prefixes.
                run = run[bisect_left(run, goal) :]
                emitting = bool(run)
            yield from run

    def first(self, goal: SeekGoal) -> Entry | None:
        """The first entry at or after ``goal`` — ``next(seek(goal), None)``
        without the generator."""
        last = len(self._restarts)
        # With one restart there is one run: no restart keys to search.
        for index in range(self._seek_run(goal) if last > 1 else 1, last + 1):
            run = self._run(index)
            at = bisect_left(run, goal)
            if at < len(run):
                return run[at]
        return None

    def get(self, goal: SeekGoal) -> bytes | None:
        """Exact-match lookup (equal sort keys)."""
        entry = self.first(goal)
        return entry[2] if entry is not None and entry[:2] == goal else None
