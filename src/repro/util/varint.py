"""Variable-length integer encoding (LEB128), as used by RocksDB/LevelDB.

All on-disk structures in :mod:`repro.lsm` store lengths and offsets as
varint32/varint64 to keep blocks compact. Encoding is little-endian base-128
with the high bit of each byte as a continuation flag.
"""

from __future__ import annotations

from repro.errors import CorruptionError

MAX_VARINT32_LEN = 5
MAX_VARINT64_LEN = 10


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a varint."""
    if value < 0x4000:
        if value < 0:
            raise ValueError(f"varint cannot encode negative value {value}")
        # One or two bytes — lengths, and offsets inside a table's first 16 KiB.
        return bytes((value,)) if value < 0x80 else bytes((value & 0x7F | 0x80, value >> 7))
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``buf`` starting at ``offset``.

    Returns ``(value, new_offset)`` where ``new_offset`` points just past the
    encoded integer.

    Raises:
        CorruptionError: if the buffer ends mid-varint or the encoding is
            longer than a varint64 can be.
    """
    result = 0
    shift = 0
    pos = offset
    n = len(buf)
    while True:
        if pos >= n:
            raise CorruptionError("truncated varint")
        if shift >= 7 * MAX_VARINT64_LEN:
            raise CorruptionError("varint too long")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def put_length_prefixed(out: bytearray, data: bytes) -> None:
    """Append ``len(data)`` as a varint followed by ``data`` itself."""
    out += encode_varint(len(data))
    out += data


def get_length_prefixed(buf: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Read a length-prefixed slice written by :func:`put_length_prefixed`."""
    length, pos = decode_varint(buf, offset)
    end = pos + length
    if end > len(buf):
        raise CorruptionError("truncated length-prefixed slice")
    return bytes(buf[pos:end]), end
