"""SSTable reader.

Opens a table through the Env's :class:`RandomAccessFile` — which may sit on
the local device *or* the cloud store — and serves point lookups and range
iteration with per-block ranged reads. Every block read goes through the
table's :class:`~repro.lsm.block_cache.BlockStack`, the ordered list of
sources (DRAM cache, RocksMash's persistent cache, the scan's buffers, the
file).
A scan hands its :class:`~repro.lsm.block_cache.ScanReads` down with each
read, and :meth:`TableReader.scan_span` sizes the one ranged read a scan's
miss on a cloud table issues.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterator
from itertools import chain

from repro.errors import CorruptionError
from repro.lsm.block import Block
from repro.lsm.block_cache import BlockStack, ScanReads
from repro.lsm.format import (
    BLOCK_TRAILER_SIZE,
    FILTER_WHOLE_TABLE,
    FOOTER_SIZE,
    BlockHandle,
    Footer,
    decode_handle,
)
from repro.lsm.options import Options
from repro.lsm.table_builder import BLOOM_BITS_PER_KEY
from repro.storage.env import RandomAccessFile
from repro.util.bloom import BloomFilterPolicy
from repro.util.encoding import Entry, SeekGoal, seek_goal


class TableReader:
    """Random access into one immutable SSTable."""

    def __init__(
        self,
        options: Options,
        file: RandomAccessFile,
        *,
        stack: BlockStack | None = None,
    ) -> None:
        self.options = options
        self.file = file
        self.name = file.name
        self.filter_stats: dict[str, int] = {
            "checked": 0,
            "useful": 0,
            "false_positive": 0,
        }
        """Bloom-probe outcomes for this table's point lookups: ``checked``
        counts lookups that consulted a filter, ``useful`` the ones the
        filter rejected (a data-block fetch saved), ``false_positive`` the
        ones the filter passed but the candidate block did not hold the
        key (a wasted fetch — on a cloud-resident table, a wasted GET).
        Mirrored store-wide, and as ``bloom_*`` tracer events, through the
        stack's :class:`~repro.lsm.block_cache.BlockPath`."""
        self.stack = stack if stack is not None else BlockStack(file.name, file)
        """The ordered block sources every read of this table goes through."""
        footer_bytes = self.stack.footer()
        if footer_bytes is not None:
            # Pinned footer (e.g. from the persistent cache): skips both the
            # size probe and the footer read against the backing file.
            if len(footer_bytes) != FOOTER_SIZE:
                raise CorruptionError(
                    f"pinned footer for {self.name} has wrong size"
                )
            footer = Footer.decode(footer_bytes)
        else:
            size = file.size()
            if size < FOOTER_SIZE:
                raise CorruptionError(f"table {self.name} smaller than footer")
            footer = Footer.decode(file.read(size - FOOTER_SIZE, FOOTER_SIZE))
        self.footer = footer
        self._index = Block(self.stack.meta(footer.index_handle, "index"))
        self._parsed: tuple[list[SeekGoal], list[BlockHandle]] | None = None
        # Every table carries a filter block (the builder always writes
        # one), so a missing one is corruption, like an unknown tag.
        handle = footer.filter_handle
        payload = self.stack.meta(handle, "filter") if handle.size else b""
        if not payload:
            raise CorruptionError(f"table {self.name} has an empty filter block")
        if payload[0] != FILTER_WHOLE_TABLE:
            raise CorruptionError(f"unknown filter-block tag {payload[0]:#x}")
        self._filter = payload[1:]

    # -- index -----------------------------------------------------------

    def _seek_index(self) -> tuple[list[SeekGoal], list[BlockHandle]]:
        """The index parsed for seeks, ``(orders, handles)``: parallel lists,
        one slot per data block, built by the reader's first seek and kept.
        ``orders[i]`` is the sort key of block ``i``'s last key, so
        ``bisect_left(orders, goal)`` is the *boundary block* of ``goal`` —
        it may hold keys below ``goal``, no later block can — or
        ``len(orders)`` when every key sorts below ``goal``. Whole-table
        walks do not come here: a compaction input is read once and must
        not leave a sort key per block behind.
        """
        parsed = self._parsed
        if parsed is None:
            index = list(self._index)
            parsed = self._parsed = (
                [entry[:2] for entry in index],
                [decode_handle(entry[2])[0] for entry in index],
            )
        return parsed

    def _handles_from(self, goal: SeekGoal | None) -> list[BlockHandle]:
        """Handles a forward read from ``goal`` visits: the boundary block
        on, or (``None``) every block — decoded for this walk only, unless
        a seek has parsed them already."""
        if goal is None:
            if self._parsed is not None:
                return self._parsed[1]
            return [decode_handle(entry[2])[0] for entry in self._index]
        orders, handles = self._seek_index()
        return handles[bisect_left(orders, goal) :]

    # -- lookups ---------------------------------------------------------

    def _note_filter(self, outcome: str) -> None:
        self.filter_stats[outcome] += 1
        label = "bloom_" + outcome
        path = self.stack.path
        path.bloom[label] += 1
        path.event(label)

    def may_contain(self, user_key: bytes) -> bool:
        """Bloom-filter probe; False means the key is definitely absent."""
        return BloomFilterPolicy.key_may_match(user_key, self._filter)

    def get(self, goal: SeekGoal) -> Entry | None:
        """First entry at or after ``goal``, or None: bloom probe, index
        bisect, block.

        The caller (DB/version) decides whether the returned entry's user
        key matches and whether it is a value or tombstone.
        """
        user_key = goal[0]
        self._note_filter("checked")
        if not BloomFilterPolicy.key_may_match(user_key, self._filter):
            self._note_filter("useful")
            return None
        orders, handles = self._seek_index()
        for position in range(bisect_left(orders, goal), len(handles)):
            entry = self.stack.block(handles[position]).first(goal)
            if entry is not None:
                if entry[0] != user_key:
                    # The filter passed but the block holds no entry for
                    # this user key: the data fetch was a bloom miss.
                    self._note_filter("false_positive")
                return entry
            # The goal sorts after every entry of this block (can happen when
            # goal > block's last key only via index separator equality);
            # fall through to the next index entry.
        self._note_filter("false_positive")
        return None

    # -- iteration ----------------------------------------------------------

    def edge_data_handle(self, goal: SeekGoal | None = None) -> BlockHandle | None:
        """Handle of the first data block :meth:`entries` would read.

        Index-only (no data-block I/O): used by a scan's prefetch schedule
        (:class:`~repro.lsm.block_cache.ScanReads`) and by compaction to
        prime a table's opening range ahead of consumption. That is the boundary block of ``goal`` (None when
        every key sorts below it) or the table's first block, read off the
        first index entry alone (no sort keys kept).
        """
        if goal is None:
            first = self._index.head()
            return decode_handle(first[2])[0] if first is not None else None
        orders, handles = self._seek_index()
        position = bisect_left(orders, goal)
        return handles[position] if position < len(handles) else None

    @property
    def num_entries(self) -> int:
        """Entries in the table, read off its filter's length (no I/O).

        The filter holds ``ceil(max(64, n * BLOOM_BITS_PER_KEY) / 8)`` bytes
        plus the probe byte for ``n`` entries, so this is exact from 7
        entries up at 10 bits per key; below that the 64-bit floor reads as
        6 entries.
        """
        return (len(self._filter) - 1) * 8 // BLOOM_BITS_PER_KEY

    def scan_span(
        self, handle: BlockHandle, rows: int | None, end: SeekGoal | None, window: int
    ) -> int:
        """Bytes from ``handle``'s block on that a scan may still need: up to
        the end of the block holding ``end`` (the last data block when None),
        at most ``rows`` entries of this table's mean size past ``handle``'s
        block, and at most ``window`` — but never less than the block."""
        data_bytes = self.footer.filter_handle.offset  # the data blocks come first
        stop = data_bytes
        if end is not None:
            orders, handles = self._seek_index()
            position = bisect_left(orders, end)
            if position < len(handles):
                last = handles[position]
                stop = last.offset + last.size + BLOCK_TRAILER_SIZE
        length = min(window, stop - handle.offset)
        block = handle.size + BLOCK_TRAILER_SIZE
        if rows is not None:
            length = min(length, block + rows * data_bytes // self.num_entries)
        return max(length, block)

    def entries(
        self, goal: SeekGoal | None = None, reads: ScanReads | None = None
    ) -> Iterator[Entry]:
        """Entries at or after ``goal``, ascending, one lazily fetched
        block at a time. ``None`` means no bound: the whole table.
        ``reads`` is the asking scan's, when a scan asks."""
        load = self.stack.block
        scan = reads.buffer(self) if reads is not None else None
        for handle in self._handles_from(goal):
            block = load(handle, scan)
            yield from block.seek(goal) if goal is not None else block
            goal = None  # the seek applies to the first block only

    # -- compaction support -------------------------------------------------

    def anchor_user_keys(self, max_anchors: int = 32) -> list[bytes]:
        """Evenly sampled user keys from the index (no data-block I/O).

        Index separator keys bound their blocks from above, so they chart
        the key distribution at block granularity — the anchors RocksDB
        samples to place subcompaction boundaries inside files that span
        the whole key range (e.g. every L0 file).
        """
        separators = [entry[0] for entry in self._index]
        if len(separators) <= max_anchors:
            return separators
        step = len(separators) / max_anchors
        return [separators[int(i * step)] for i in range(max_anchors)]

    def range_iter(
        self,
        begin: bytes | None = None,
        end: bytes | None = None,
        *,
        stack: BlockStack | None = None,
    ) -> Iterator[Entry]:
        """Entries whose *user* key lies in ``[begin, end)``, in order.

        ``stack`` replaces the table's own stack for this one pass: the
        compaction pipeline reads its strictly-sequential inputs through a
        :class:`~repro.lsm.block_cache.SequentialStack` (one large ranged
        GET instead of one per block, nothing cached).
        """
        load = (stack or self.stack).block
        if begin is None and end is None:
            # Whole blocks, whole table: each block's decoded list is handed
            # to the consumer as it is — no frame of this module per entry.
            return chain.from_iterable(map(load, self._handles_from(None)))
        return self._bounded_iter(load, begin, end)

    def _bounded_iter(
        self, load: Callable[[BlockHandle], Block], begin: bytes | None, end: bytes | None
    ) -> Iterator[Entry]:
        goal = seek_goal(begin) if begin is not None else None  # first block only
        for handle in self._handles_from(goal):
            block = load(handle)
            entries = block.seek(goal) if goal is not None else iter(block)
            goal = None
            if end is None:
                yield from entries
                continue
            for entry in entries:
                if entry[0] >= end:
                    return
                yield entry
