"""WriteBatch: the atomic unit of writes, handed to the log as it is.

The batch has no encoding of its own: the write-ahead log
(:class:`~repro.lsm.wal.XWalWriter`) takes the batch itself and writes its
ops into its shard records, and recovery replays those records straight into
the memtable.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.util.encoding import TYPE_DELETION, TYPE_VALUE


@dataclass(frozen=True, slots=True)
class BatchOp:
    """One operation inside a batch."""

    value_type: int
    key: bytes
    value: bytes = b""


class WriteBatch:
    """An ordered collection of puts/deletes applied atomically."""

    def __init__(self) -> None:
        self._ops: list[BatchOp] = []
        self.sequence = 0
        """Sequence number of the first op; assigned by the DB at commit."""

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        self._ops.append(BatchOp(TYPE_VALUE, bytes(key), bytes(value)))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        self._ops.append(BatchOp(TYPE_DELETION, bytes(key)))
        return self

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[BatchOp]:
        return iter(self._ops)
