"""Low-level building blocks: encodings, key order, checksums, filters."""

from repro.util.bloom import BloomFilterPolicy
from repro.util.crc import crc32, masked_crc32, verify_masked_crc32
from repro.util.encoding import (
    TYPE_DELETION,
    TYPE_VALUE,
    extract_user_key,
    internal_order,
    make_internal_key,
)
from repro.util.varint import decode_varint, encode_varint

__all__ = [
    "BloomFilterPolicy",
    "TYPE_DELETION",
    "TYPE_VALUE",
    "crc32",
    "decode_varint",
    "encode_varint",
    "extract_user_key",
    "internal_order",
    "make_internal_key",
    "masked_crc32",
    "verify_masked_crc32",
]
