"""SSTable writer.

Streams sorted entries into data blocks, then appends the
filter block, index block, and footer (see :mod:`repro.lsm.format` for the
layout). Besides the table bytes, :meth:`TableBuilder.finish` returns
:class:`TableProperties` including the per-block key ranges — the hook that
RocksMash's compaction-aware cache layout uses to map heat from compaction
input blocks onto output blocks.
"""

from __future__ import annotations

import struct
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import InvalidArgumentError
from repro.lsm.block import BlockBuilder
from repro.lsm.format import (
    BLOCK_TRAILER_SIZE,
    FILTER_WHOLE_TABLE,
    BlockHandle,
    Footer,
    encode_handle,
    seal_block,
)
from repro.lsm.options import Options
from repro.storage.env import WritableFile
from repro.util.bloom import BloomFilterPolicy
from repro.util.encoding import TRAILER, Entry, internal_order

BLOCK_RESTART_INTERVAL = 16
"""Keys between restart points inside a data block (LevelDB's default)."""

BLOOM_BITS_PER_KEY = 10
"""Bits per key of every table's bloom filter (RocksDB's default)."""

_FILTER_POLICY = BloomFilterPolicy(bits_per_key=BLOOM_BITS_PER_KEY)


class BlockMeta(NamedTuple):
    """Key range and location of one data block within a table."""

    first_key: bytes
    last_key: bytes
    handle: BlockHandle


@dataclass
class TableProperties:
    """Summary returned by :meth:`TableBuilder.finish`."""

    file_size: int = 0
    num_entries: int = 0
    smallest_key: bytes = b""
    largest_key: bytes = b""
    blocks: list[BlockMeta] = field(default_factory=list)


class TableBuilder:
    """Builds one SSTable onto a writable file."""

    def __init__(self, options: Options, file: WritableFile) -> None:
        self.options = options
        self._file = file
        self._data_block = BlockBuilder(BLOCK_RESTART_INTERVAL)
        self._offset = 0
        self._props = TableProperties()
        # The table's user keys, awaiting the filter.
        self._filter_keys: list[bytes] = []
        self._finished = False

    def fill(self, entries: Iterable[Entry], max_file_size: int | None = None) -> bool:
        """Append a stream of entries; ``(user_key, neg_trailer)`` must
        strictly increase, through every call.

        A data block is cut when its ``size_estimate`` reaches ``block_size``.
        True: file bytes written plus the open block's reached
        ``max_file_size`` and ``entries`` is left on the next entry not taken;
        False: ``entries`` ran out. A bad entry raises with every earlier one
        in the table.
        """
        if self._finished:
            raise InvalidArgumentError("fill() after finish()")
        block = self._data_block
        block_size = self.options.block_size
        room = sys.maxsize if max_file_size is None else max_file_size
        keyed = self._keyed(entries)
        while block.fill(keyed, min(block_size, room - self._offset)):
            if block.size_estimate >= block_size:
                self._flush_data_block()
            if self._offset + block.size_estimate >= room:
                return True
        return False

    def _keyed(self, entries: Iterable[Entry]) -> Iterator[tuple[bytes, bytes]]:
        """``(internal key bytes, value)`` per entry, for the block encoder:
        order and ``neg_trailer`` range checked, the filter's key collected,
        the key bytes rebuilt — here and nowhere earlier."""
        last_key = self._data_block.last_key
        last_user_key, last_neg = internal_order(last_key) if last_key else (b"", -(1 << 64))
        collect = self._filter_keys.append
        pack = TRAILER.pack
        for user_key, neg_trailer, value in entries:
            try:
                key = user_key + pack(-neg_trailer)  # "<Q": the range check
            except struct.error:
                raise InvalidArgumentError(f"neg_trailer {neg_trailer} not in (-2**64, 0]") from None
            if user_key <= last_user_key and (user_key < last_user_key or neg_trailer <= last_neg):
                raise InvalidArgumentError("keys added out of order")
            collect(user_key)
            last_user_key, last_neg = user_key, neg_trailer
            yield key, value

    def _write_raw_block(self, payload: bytes) -> BlockHandle:
        """Seal and append a filter or index block, stored as it is."""
        sealed = seal_block(payload)
        handle = BlockHandle(self._offset, len(sealed) - BLOCK_TRAILER_SIZE)
        self._file.append(sealed)
        self._offset += len(sealed)
        return handle

    def _flush_data_block(self) -> None:
        """The open block's tail: restart trailer, seal, append, handle, meta, reset."""
        block = self._data_block
        if not block.num_entries:
            return
        sealed = seal_block(block.finish(), compression=self.options.compression)
        offset = self._offset
        self._file.append(sealed)
        self._offset = offset + len(sealed)
        handle = tuple.__new__(BlockHandle, (offset, len(sealed) - BLOCK_TRAILER_SIZE))
        props = self._props
        props.blocks.append(tuple.__new__(BlockMeta, (block.first_key, block.last_key, handle)))
        props.num_entries += block.num_entries
        block.reset()

    def finish(self) -> TableProperties:
        """Flush remaining data, write filter/index/footer, close the file."""
        if self._finished:
            raise InvalidArgumentError("finish() called twice")
        self._flush_data_block()
        if not self._props.blocks:
            raise InvalidArgumentError("cannot finish an empty table")
        self._props.smallest_key = self._props.blocks[0].first_key
        self._props.largest_key = self._data_block.last_key

        # Filter block: one bloom filter over the whole table.
        filter_handle = self._write_raw_block(
            bytes([FILTER_WHOLE_TABLE]) + _FILTER_POLICY.create_filter(self._filter_keys)
        )

        # Index block: last key of each data block -> handle.
        index = BlockBuilder(restart_interval=1)  # full keys: binary-search friendly
        index.fill([(meta.last_key, encode_handle(meta.handle)) for meta in self._props.blocks])
        index_handle = self._write_raw_block(index.finish())

        footer = Footer(filter_handle, index_handle).encode()
        self._file.append(footer)
        self._offset += len(footer)
        self._props.file_size = self._offset
        self._file.close()
        self._finished = True
        return self._props
