"""Checksums for on-disk records and blocks.

Uses :func:`zlib.crc32` (CRC-32/ISO-HDLC) with RocksDB-style *masking*: a
checksum that is itself stored inside checksummed data must not look like a
valid checksum of that data, so stored CRCs are rotated and offset by a
constant, exactly as LevelDB/RocksDB do for their CRC32C values.
"""

from __future__ import annotations

import zlib

_MASK_DELTA = 0xA282EAD8
_U32 = 0xFFFFFFFF


def crc32(data: bytes, seed: int = 0) -> int:
    """Plain CRC-32 of ``data`` (optionally chained via ``seed``)."""
    return zlib.crc32(data, seed) & _U32


def mask(crc: int) -> int:
    """Return a masked representation of ``crc`` suitable for storage."""
    crc &= _U32
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & _U32


def unmask(masked: int) -> int:
    """Invert :func:`mask`."""
    rot = (masked - _MASK_DELTA) & _U32
    return ((rot >> 17) | (rot << 15)) & _U32


def masked_crc32(data: bytes) -> int:
    """CRC-32 of ``data``, masked for storage alongside the data (:func:`mask`
    written out: a record framed or verified pays one call)."""
    crc = zlib.crc32(data)
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & _U32


def verify_masked_crc32(data: bytes, stored: int) -> bool:
    """Check ``data`` against a stored masked CRC (masking is one-to-one on
    32 bits, so the masked forms are compared)."""
    crc = zlib.crc32(data)
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & _U32 == stored
