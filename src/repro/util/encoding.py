"""Internal key encoding and fixed-width integer helpers.

The LSM engine stores *internal keys*: the user key followed by an 8-byte
trailer packing a 56-bit sequence number and an 8-bit value type, exactly as
LevelDB/RocksDB do. Internal keys sort by user key ascending, then sequence
number **descending** (newest first), then type descending.

In memory an entry is split once, where its block is decoded, into
``(user_key, neg_trailer, value)`` with ``neg_trailer = -((sequence << 8) |
type)`` (:data:`Entry`): such tuples sort in internal-key order natively, so
``sorted``, ``bisect`` and ``heapq.merge`` need no ``key=``, and a
:data:`SeekGoal` ``(user_key, neg_trailer)`` bisects straight to the entry it
prefixes. Internal-key *bytes* remain the stored form (blocks, file and block
boundaries, the MANIFEST); :func:`internal_order` gives them the same sort key.
"""

from __future__ import annotations

import struct

from repro.errors import CorruptionError

# Value types (trailer low byte). Order matters: for equal (user_key, seq)
# a higher type sorts first in internal-key order.
TYPE_DELETION = 0x0
TYPE_VALUE = 0x1

MAX_SEQUENCE = (1 << 56) - 1

_FIXED64 = struct.Struct("<Q")
_FIXED32 = struct.Struct("<I")

TRAILER = _FIXED64  # for the two loops that split and rejoin keys
SeekGoal = tuple[bytes, int]
"""``(user_key, neg_trailer)``: the sort key of an internal key."""
Entry = tuple[bytes, int, bytes]
"""``(user_key, neg_trailer, value)``: one decoded entry."""


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


def seek_goal(user_key: bytes, sequence: int = MAX_SEQUENCE) -> SeekGoal:
    """Where a read of ``user_key`` at snapshot ``sequence`` starts: ahead of
    every entry of the key with a sequence at or below it, after all newer."""
    return user_key, -((sequence << 8) | TYPE_VALUE)


def entry_key(user_key: bytes, neg_trailer: int) -> bytes:
    """Internal-key bytes of a decoded entry (inverse of :func:`internal_order`)."""
    return user_key + TRAILER.pack(-neg_trailer)


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
