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

from repro.errors import CorruptionError
from repro.util.crc import masked_crc32, verify_masked_crc32
from repro.util.varint import decode_varint, encode_varint

TABLE_MAGIC = 0x88E241B785F4CF57  # RocksDB's BlockBasedTable magic
BLOCK_TRAILER_SIZE = 5  # compression type byte + masked crc32
FOOTER_SIZE = 8 * 4 + 8  # two handles (offset,size as fixed64 pairs) + magic

# Compression type bytes stored in the block trailer.
COMPRESSION_NONE = 0x0
COMPRESSION_ZLIB = 0x1

# Filter-block layout tag (first payload byte). One layout exists; a reader
# rejects any other tag as corruption.
FILTER_WHOLE_TABLE = 0x0

_FOOTER = struct.Struct("<QQQQQ")


@dataclass(frozen=True, slots=True)
class BlockHandle:
    """Location of a block within an SSTable file."""

    offset: int
    size: int
    """Payload size, excluding the 4-byte CRC trailer."""

    def __post_init__(self) -> None:
        if self.offset < 0 or self.size < 0:
            raise ValueError("block handle fields must be non-negative")


def encode_handle(handle: BlockHandle) -> bytes:
    """Varint encoding of a handle (used as index-block entry values)."""
    return encode_varint(handle.offset) + encode_varint(handle.size)


def decode_handle(data: bytes, offset: int = 0) -> tuple[BlockHandle, int]:
    """Inverse of :func:`encode_handle`; returns ``(handle, next_offset)``."""
    off, pos = decode_varint(data, offset)
    size, pos = decode_varint(data, pos)
    return BlockHandle(off, size), pos


@dataclass(frozen=True, slots=True)
class Footer:
    """Fixed-size table footer pointing at the filter and index blocks."""

    filter_handle: BlockHandle
    index_handle: BlockHandle

    def encode(self) -> bytes:
        return _FOOTER.pack(
            self.filter_handle.offset,
            self.filter_handle.size,
            self.index_handle.offset,
            self.index_handle.size,
            TABLE_MAGIC,
        )

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
        data, ctype = payload, COMPRESSION_NONE
    elif compression == "zlib":
        compressed = zlib.compress(payload, level=1)
        if len(compressed) < len(payload):
            data, ctype = compressed, COMPRESSION_ZLIB
        else:
            data, ctype = payload, COMPRESSION_NONE
    else:
        raise ValueError(f"unknown compression {compression!r}")
    body = data + bytes([ctype])
    return body + masked_crc32(body).to_bytes(4, "little")


def unseal_block(raw: bytes, *, verify: bool = True) -> bytes:
    """Decode a stored block: verify CRC, decompress, return the payload."""
    if len(raw) < BLOCK_TRAILER_SIZE:
        raise CorruptionError("block shorter than its trailer")
    body, crc_bytes = raw[:-4], raw[-4:]
    if verify and not verify_masked_crc32(body, int.from_bytes(crc_bytes, "little")):
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


def log_file_name(prefix: str, number: int) -> str:
    return f"{prefix}{number:06d}.log"


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


def parse_file_name(prefix: str, name: str) -> tuple[str, int] | None:
    """Classify a file name; returns ``(kind, number)`` or None.

    Kinds: ``"log"``, ``"table"``, ``"blob"``, ``"manifest"``, ``"current"``
    (number 0).
    """
    if not name.startswith(prefix):
        return None
    rest = name[len(prefix) :]
    if rest == "CURRENT":
        return ("current", 0)
    if rest.startswith("MANIFEST-"):
        try:
            return ("manifest", int(rest[len("MANIFEST-") :]))
        except ValueError:
            return None
    if rest.endswith(".log"):
        try:
            return ("log", int(rest[:-4]))
        except ValueError:
            return None
    if rest.endswith(".xlog"):
        # Extended-WAL shard: NNNNNN-SS.xlog -> ("xlog", N)
        stem = rest[:-5]
        try:
            number, _shard = stem.split("-", 1)
            return ("xlog", int(number))
        except ValueError:
            return None
    if rest.endswith(".sst"):
        try:
            return ("table", int(rest[:-4]))
        except ValueError:
            return None
    if rest.endswith(".blob"):
        try:
            return ("blob", int(rest[:-5]))
        except ValueError:
            return None
    return None
