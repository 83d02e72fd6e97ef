"""SSTable writer.

Streams sorted entries into data blocks, then appends the
filter block, index block, and footer (see :mod:`repro.lsm.format` for the
layout). Besides the table bytes, :meth:`TableBuilder.finish` returns
:class:`TableProperties` including the per-block key ranges — the hook that
RocksMash's compaction-aware cache layout uses to map heat from compaction
input blocks onto output blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.util.encoding import TRAILER, SeekGoal

BLOCK_RESTART_INTERVAL = 16
"""Keys between restart points inside a data block (LevelDB's default)."""


@dataclass(frozen=True, slots=True)
class BlockMeta:
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
    data_bytes: int = 0
    index_bytes: int = 0
    filter_bytes: int = 0
    blocks: list[BlockMeta] = field(default_factory=list)


class TableBuilder:
    """Builds one SSTable onto a writable file."""

    def __init__(self, options: Options, file: WritableFile, *, level: int = 0) -> None:
        self.options = options
        self.level = level
        self._filter_policy = options.table_filter_policy(level)
        self._file = file
        self._data_block = BlockBuilder(BLOCK_RESTART_INTERVAL)
        self._offset = 0
        self.estimated_size = 0
        """File bytes written so far plus the open data block's, as of the last ``add``."""
        self._props = TableProperties()
        self._block_first_key: bytes | None = None
        self._last_order: SeekGoal | None = None
        # The table's user keys, awaiting the filter. Left empty when the
        # level has no filter.
        self._filter_keys: list[bytes] = []
        self._finished = False

    @property
    def num_entries(self) -> int:
        return self._props.num_entries

    def add(self, user_key: bytes, neg_trailer: int, value: bytes) -> None:
        """Append an entry; ``(user_key, neg_trailer)`` must strictly increase.

        Internal-key bytes are rebuilt here, for the block encoder and the
        block/file boundaries, and nowhere earlier.
        """
        if self._finished:
            raise InvalidArgumentError("add() after finish()")
        if not -(1 << 64) < neg_trailer <= 0:
            raise InvalidArgumentError(f"neg_trailer {neg_trailer} outside (-2**64, 0]")
        order = (user_key, neg_trailer)
        if self._last_order is not None and self._last_order >= order:
            raise InvalidArgumentError("keys added out of order")
        key = user_key + TRAILER.pack(-neg_trailer)
        if self._block_first_key is None:
            self._block_first_key = key
        self._data_block.add(key, value)
        if self._filter_policy is not None:
            self._filter_keys.append(user_key)
        self._last_order = order
        self._props.num_entries += 1
        self._props.largest_key = key
        if self._data_block.size_estimate >= self.options.block_size:
            self._flush_data_block()
        self.estimated_size = self._offset + self._data_block.size_estimate

    def _write_raw_block(self, payload: bytes, *, compression: str = "none") -> BlockHandle:
        sealed = seal_block(payload, compression=compression)
        handle = BlockHandle(self._offset, len(sealed) - BLOCK_TRAILER_SIZE)
        self._file.append(sealed)
        self._offset += len(sealed)
        return handle

    def _flush_data_block(self) -> None:
        if self._data_block.empty():
            return
        payload = self._data_block.finish()
        handle = self._write_raw_block(payload, compression=self.options.compression)
        assert self._block_first_key is not None
        self._props.blocks.append(
            BlockMeta(self._block_first_key, self._props.largest_key, handle)
        )
        self._props.data_bytes += len(payload)
        self._data_block.reset()
        self._block_first_key = None

    def finish(self) -> TableProperties:
        """Flush remaining data, write filter/index/footer, close the file."""
        if self._finished:
            raise InvalidArgumentError("finish() called twice")
        self._flush_data_block()
        if not self._props.blocks:
            raise InvalidArgumentError("cannot finish an empty table")
        self._props.smallest_key = self._props.blocks[0].first_key

        # Filter block: one bloom filter over the whole table. The policy
        # was resolved for this table's level at construction (per-level
        # allocations hand different levels different budgets).
        if self._filter_policy is None:
            filter_payload = b""
        else:
            filter_payload = bytes([FILTER_WHOLE_TABLE]) + self._filter_policy.create_filter(
                self._filter_keys
            )
        filter_handle = self._write_raw_block(filter_payload)
        self._props.filter_bytes = len(filter_payload)

        # Index block: last key of each data block -> handle.
        index = BlockBuilder(restart_interval=1)  # full keys: binary-search friendly
        for meta in self._props.blocks:
            index.add(meta.last_key, encode_handle(meta.handle))
        index_payload = index.finish()
        index_handle = self._write_raw_block(index_payload)
        self._props.index_bytes = len(index_payload)

        footer = Footer(filter_handle, index_handle).encode()
        self._file.append(footer)
        self._offset += len(footer)
        self._props.file_size = self._offset
        self._file.close()
        self._finished = True
        return self._props
