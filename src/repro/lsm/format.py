"""On-disk SSTable framing: block handles, the footer, file naming.

SSTable layout (simplified RocksDB BlockBasedTable)::

    [data block 0]
    [data block 1] ...
    [filter block]           (whole-table bloom filter)
    [index block]            (separator key -> data block handle)
    [footer]                 (fixed size: filter handle, index handle, magic)

Each block on disk is the (optionally compressed) block contents followed
by a 5-byte trailer: one compression-type byte plus a masked CRC-32 over
contents + type (LevelDB's layout). The footer is fixed-width so a reader
can locate it with one ranged read of the file tail.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import CorruptionError
from repro.util.crc import mask, verify_masked_crc32
from repro.util.varint import decode_varint, encode_varint

TABLE_MAGIC = 0x88E241B785F4CF57  # RocksDB's BlockBasedTable magic
BLOCK_TRAILER_SIZE = 5  # compression type byte + masked crc32
FOOTER_SIZE = 8 * 4 + 8  # two handles (offset,size as fixed64 pairs) + magic

# Compression type bytes stored in the block trailer.
COMPRESSION_NONE = 0x0
COMPRESSION_ZLIB = 0x1
_TYPE_NONE = bytes([COMPRESSION_NONE])
_TYPE_ZLIB = bytes([COMPRESSION_ZLIB])

# Filter-block layout tag (first payload byte). One layout exists; a reader
# rejects any other tag as corruption.
FILTER_WHOLE_TABLE = 0x0

_FOOTER = struct.Struct("<QQQQQ")


class BlockHandle(NamedTuple):
    """Location of a block within an SSTable file. A tuple: one is built per
    block written and per index entry read; a stored handle is unsigned by
    construction (varints, the footer's ``<Q``), so no field is checked."""

    offset: int
    size: int
    """Payload size, excluding the 4-byte CRC trailer."""


def encode_handle(handle: BlockHandle) -> bytes:
    """Varint encoding of a handle (used as index-block entry values)."""
    return encode_varint(handle.offset) + encode_varint(handle.size)


def decode_handle(data: bytes, offset: int = 0) -> tuple[BlockHandle, int]:
    """Inverse of :func:`encode_handle`; returns ``(handle, next_offset)``."""
    off, pos = decode_varint(data, offset)
    size, pos = decode_varint(data, pos)
    return tuple.__new__(BlockHandle, (off, size)), pos


@dataclass(frozen=True, slots=True)
class Footer:
    """Fixed-size table footer pointing at the filter and index blocks."""

    filter_handle: BlockHandle
    index_handle: BlockHandle

    def encode(self) -> bytes:
        return _FOOTER.pack(*self.filter_handle, *self.index_handle, TABLE_MAGIC)

    @classmethod
    def decode(cls, data: bytes) -> "Footer":
        if len(data) != FOOTER_SIZE:
            raise CorruptionError(f"bad footer size {len(data)}")
        f_off, f_size, i_off, i_size, magic = _FOOTER.unpack(data)
        if magic != TABLE_MAGIC:
            raise CorruptionError(f"bad table magic {magic:#x}")
        return cls(BlockHandle(f_off, f_size), BlockHandle(i_off, i_size))


def seal_block(payload: bytes, *, compression: str = "none") -> bytes:
    """Encode a block for storage: contents + type byte + masked CRC.

    With ``compression="zlib"`` the payload is deflated, but only kept if
    that actually shrinks it (incompressible blocks are stored raw with the
    NONE type byte, like RocksDB's min-ratio rule).
    """
    if compression == "none":
        data, ctype = payload, _TYPE_NONE
    elif compression == "zlib":
        compressed = zlib.compress(payload, level=1)
        if len(compressed) < len(payload):
            data, ctype = compressed, _TYPE_ZLIB
        else:
            data, ctype = payload, _TYPE_NONE
    else:
        raise ValueError(f"unknown compression {compression!r}")
    # The CRC is chained over the two parts so the block is copied once.
    crc = mask(zlib.crc32(ctype, zlib.crc32(data)))
    return b"".join((data, ctype, crc.to_bytes(4, "little")))


def unseal_block(raw: bytes, *, verify: bool = True) -> bytes:
    """Decode a stored block: verify CRC, decompress, return the payload."""
    if len(raw) < BLOCK_TRAILER_SIZE:
        raise CorruptionError("block shorter than its trailer")
    body = raw[:-4]
    if verify and not verify_masked_crc32(body, int.from_bytes(raw[-4:], "little")):
        raise CorruptionError("block checksum mismatch")
    data, ctype = body[:-1], body[-1]
    if ctype == COMPRESSION_NONE:
        return data
    if ctype == COMPRESSION_ZLIB:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise CorruptionError(f"block decompression failed: {exc}") from exc
    raise CorruptionError(f"unknown block compression type {ctype:#x}")


# --------------------------------------------------------------------------
# File naming (LevelDB conventions, prefixed with the DB name)
# --------------------------------------------------------------------------


def table_file_name(prefix: str, number: int) -> str:
    return f"{prefix}{number:06d}.sst"


def xlog_file_name(prefix: str, number: int, shard: int) -> str:
    return f"{prefix}{number:06d}-{shard:02d}.xlog"


def blob_file_name(prefix: str, number: int) -> str:
    return f"{prefix}{number:06d}.blob"


def manifest_file_name(prefix: str, number: int) -> str:
    return f"{prefix}MANIFEST-{number:06d}"


def current_file_name(prefix: str) -> str:
    return f"{prefix}CURRENT"


_KIND_OF_SUFFIX = {"xlog": "xlog", "sst": "table", "blob": "blob"}


def parse_file_name(prefix: str, name: str) -> tuple[str, int] | None:
    """Classify a file name; returns ``(kind, number)`` or None.

    Kinds: ``"xlog"`` (a log shard), ``"table"``, ``"blob"``, ``"manifest"``,
    ``"current"`` (number 0).
    """
    if not name.startswith(prefix):
        return None
    rest = name[len(prefix) :]
    if rest == "CURRENT":
        return ("current", 0)
    try:
        if rest.startswith("MANIFEST-"):
            return ("manifest", int(rest[len("MANIFEST-") :]))
        stem, _, suffix = rest.rpartition(".")
        kind = _KIND_OF_SUFFIX[suffix]
        if kind == "xlog":  # extended-WAL shard: NNNNNN-SS.xlog -> ("xlog", N)
            stem, _shard = stem.split("-", 1)
        return (kind, int(stem))
    except (KeyError, ValueError):
        return None
