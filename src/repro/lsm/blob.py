"""Blob pointer and value-log record codecs (WAL-time key-value separation).

Large values never reach the memtable: the xWAL takes each one as its blob
record, embedded in its key's shard record (:mod:`repro.lsm.wal`), and the
LSM stores a fixed-size :class:`BlobPointer` in its place (BVLSM / WiscKey
lineage). At flush, the generation's shard files go up as one cloud object,
the blob segment (:mod:`repro.mash.bloblog`).

Two wire formats live here, both deliberately self-describing:

Pointer (exactly ``POINTER_SIZE`` bytes, stored as the LSM value)::

    [magic 4B][segment fixed64][offset fixed64][record_len fixed64][record_crc fixed32]

``segment`` is the xWAL generation that logged the value; ``offset`` and
``record_len`` locate the *full record* inside the shard file of the
pointer's key (:func:`repro.lsm.wal.shard_of`), so a resolve is a single
ranged read. ``record_crc`` is the record's own stored checksum: a resolve
that reads a record whose checksum verifies and equals it read the record
the pointer was made for. A raw user value that happens to be
pointer-shaped (32 bytes starting with the magic) is always diverted
regardless of threshold, so the read path can treat "parses as a pointer"
as authoritative.

Blob record (embedded in an xWAL shard record)::

    [record_len fixed32][crc fixed32 over everything after it][seq fixed64]
    [klen varint][key][value]

Records carry their own key and sequence so a GC scan or fsck can interpret
a segment with no LSM context.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CorruptionError
from repro.util.crc import masked_crc32, verify_masked_crc32
from repro.util.encoding import (
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
)
from repro.util.varint import decode_varint, encode_varint

BLOB_MAGIC = b"\xb1\x0bPT"
POINTER_SIZE = 32

_RECORD_HEADER = 16  # record_len(4) + crc(4) + seq(8); klen varint follows


@dataclass(frozen=True, slots=True)
class BlobPointer:
    """Fixed-size stand-in stored in the LSM for a diverted value."""

    segment: int
    offset: int
    length: int
    """Length of the full blob *record* (not just the value)."""
    record_crc: int
    """The record's stored checksum."""


@dataclass(frozen=True, slots=True)
class BlobRecord:
    """One decoded value-log record."""

    sequence: int
    key: bytes
    value: bytes


def encode_pointer(pointer: BlobPointer) -> bytes:
    out = (
        BLOB_MAGIC
        + encode_fixed64(pointer.segment)
        + encode_fixed64(pointer.offset)
        + encode_fixed64(pointer.length)
        + encode_fixed32(pointer.record_crc)
    )
    assert len(out) == POINTER_SIZE
    return out


def decode_pointer(data: bytes) -> BlobPointer:
    if len(data) != POINTER_SIZE or data[:4] != BLOB_MAGIC:
        raise CorruptionError("not a blob pointer")
    return BlobPointer(
        segment=decode_fixed64(data, 4),
        offset=decode_fixed64(data, 12),
        length=decode_fixed64(data, 20),
        record_crc=decode_fixed32(data, 28),
    )


def maybe_pointer(value: bytes) -> BlobPointer | None:
    """Decode ``value`` as a pointer if it is pointer-shaped, else None."""
    if len(value) != POINTER_SIZE or value[:4] != BLOB_MAGIC:
        return None
    return decode_pointer(value)


def pointer_to(segment: int, offset: int, record: bytes) -> bytes:
    """The encoded pointer to ``record``, logged at ``offset`` of its key's
    shard file in generation ``segment``."""
    return encode_pointer(BlobPointer(segment, offset, len(record), decode_fixed32(record, 4)))


def encode_blob_record(sequence: int, key: bytes, value: bytes) -> bytes:
    body = encode_fixed64(sequence) + encode_varint(len(key)) + key + value
    return (
        encode_fixed32(len(body) + _RECORD_HEADER - 8)
        + encode_fixed32(masked_crc32(body))
        + body
    )


def decode_blob_record(data: bytes) -> BlobRecord:
    """Decode the record ``data`` starts with; raises on torn/garbled data."""
    if len(data) < 8:
        raise CorruptionError("blob record truncated before header")
    record_len = decode_fixed32(data, 0)
    if record_len < _RECORD_HEADER or record_len > len(data):
        raise CorruptionError("blob record truncated")
    body = data[8:record_len]
    if not verify_masked_crc32(body, decode_fixed32(data, 4)):
        raise CorruptionError("blob record checksum mismatch")
    sequence = decode_fixed64(body, 0)
    klen, pos = decode_varint(body, 8)
    if pos + klen > len(body):
        raise CorruptionError("blob record key overruns body")
    return BlobRecord(sequence=sequence, key=body[pos : pos + klen], value=body[pos + klen :])
