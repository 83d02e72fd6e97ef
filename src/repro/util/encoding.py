"""Internal key encoding and fixed-width integer helpers.

The LSM engine stores *internal keys*: the user key followed by an 8-byte
trailer packing a 56-bit sequence number and an 8-bit value type, exactly as
LevelDB/RocksDB do. Internal keys sort by user key ascending, then sequence
number **descending** (newest first), then type descending. That order is
defined once, as the sort key :func:`internal_order`, which ``sorted``,
``bisect`` and ``heapq.merge`` take as ``key=``.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.errors import CorruptionError

# Value types (trailer low byte). Order matters: for equal (user_key, seq)
# a higher type sorts first in internal-key order.
TYPE_DELETION = 0x0
TYPE_VALUE = 0x1

MAX_SEQUENCE = (1 << 56) - 1

_FIXED64 = struct.Struct("<Q")
_FIXED32 = struct.Struct("<I")


def encode_fixed32(value: int) -> bytes:
    return _FIXED32.pack(value & 0xFFFFFFFF)


def decode_fixed32(buf: bytes, offset: int = 0) -> int:
    return int(_FIXED32.unpack_from(buf, offset)[0])


def encode_fixed64(value: int) -> bytes:
    return _FIXED64.pack(value & 0xFFFFFFFFFFFFFFFF)


def decode_fixed64(buf: bytes, offset: int = 0) -> int:
    return int(_FIXED64.unpack_from(buf, offset)[0])


def pack_trailer(sequence: int, value_type: int) -> bytes:
    """Pack ``(sequence, type)`` into the 8-byte internal-key trailer."""
    if not 0 <= sequence <= MAX_SEQUENCE:
        raise ValueError(f"sequence {sequence} out of range")
    return encode_fixed64((sequence << 8) | value_type)


def make_internal_key(user_key: bytes, sequence: int, value_type: int) -> bytes:
    """Build an internal key from its components."""
    return user_key + pack_trailer(sequence, value_type)


class ParsedInternalKey(NamedTuple):
    """Decoded form of an internal key."""

    user_key: bytes
    sequence: int
    value_type: int


def parse_internal_key(ikey: bytes) -> ParsedInternalKey:
    """Split an internal key into user key, sequence, and type."""
    size = len(ikey)
    if size < 8:
        raise CorruptionError(f"internal key too short: {size} bytes")
    trailer = _FIXED64.unpack_from(ikey, size - 8)[0]
    return ParsedInternalKey(ikey[:-8], trailer >> 8, trailer & 0xFF)


def extract_user_key(ikey: bytes) -> bytes:
    """Return just the user-key prefix of an internal key."""
    if len(ikey) < 8:
        raise CorruptionError(f"internal key too short: {len(ikey)} bytes")
    return ikey[:-8]


def internal_order(ikey: bytes) -> tuple[bytes, int]:
    """Sort key of an internal key: ``(user_key, -trailer)``.

    Tuples compare by user key ascending, then by sequence/type *descending*
    so the newest entry for a user key is encountered first during
    iteration. An in-memory sort key only — never stored.
    """
    size = len(ikey)
    if size < 8:
        raise CorruptionError(f"internal key too short: {size} bytes")
    return ikey[:-8], -_FIXED64.unpack_from(ikey, size - 8)[0]
