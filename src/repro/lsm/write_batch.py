"""WriteBatch: the atomic unit of writes and the WAL payload.

Serialized layout (LevelDB-compatible in spirit)::

    [sequence fixed64][count fixed32]
    repeated: [type byte][varint klen][key]([varint vlen][value] for PUTs)

The plain WAL stores these bytes, one batch per record, and its replay
decodes them into the memtable, so a single encoder/decoder pair guarantees
the write path and the recovery path agree byte-for-byte. The xWAL never
sees them: it takes the batch itself and writes its own shard records.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.errors import CorruptionError
from repro.util.encoding import (
    TYPE_DELETION,
    TYPE_VALUE,
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
)
from repro.util.varint import get_length_prefixed, put_length_prefixed

_HEADER_SIZE = 12


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

    def clear(self) -> None:
        self._ops.clear()
        self.sequence = 0

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[BatchOp]:
        return iter(self._ops)

    def encode(self) -> bytes:
        out = bytearray()
        out += encode_fixed64(self.sequence)
        out += encode_fixed32(len(self._ops))
        for op in self._ops:
            out.append(op.value_type)
            put_length_prefixed(out, op.key)
            if op.value_type == TYPE_VALUE:
                put_length_prefixed(out, op.value)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "WriteBatch":
        if len(data) < _HEADER_SIZE:
            raise CorruptionError("write batch shorter than header")
        batch = cls()
        batch.sequence = decode_fixed64(data, 0)
        count = decode_fixed32(data, 8)
        pos = _HEADER_SIZE
        for _ in range(count):
            if pos >= len(data):
                raise CorruptionError("write batch truncated")
            value_type = data[pos]
            pos += 1
            key, pos = get_length_prefixed(data, pos)
            if value_type == TYPE_VALUE:
                value, pos = get_length_prefixed(data, pos)
                batch._ops.append(BatchOp(TYPE_VALUE, key, value))
            elif value_type == TYPE_DELETION:
                batch._ops.append(BatchOp(TYPE_DELETION, key))
            else:
                raise CorruptionError(f"unknown batch op type {value_type}")
        if pos != len(data):
            raise CorruptionError("trailing bytes after write batch")
        return batch
