"""Sequential readahead for cloud-resident tables.

Range scans walk a table's data blocks in order; fetching each block with
its own ranged GET pays one cloud round trip per block, which makes scans
RTT-bound. Like RocksDB's iterator readahead, :class:`ReadaheadBuffer`
detects a sequential access pattern per file and fetches a large contiguous
range in one request, serving subsequent blocks from the buffered bytes.

The streak detector recognizes *both* directions: ascending offsets (a
forward scan) and descending block-adjacent offsets (a reverse scan, which
reads the block ending exactly where the previous one began). A descending
streak fetches the range *ending* at the current block, so reverse scans
coalesce GETs the same way forward scans do.

Readahead-served blocks are *not* admitted to the persistent cache — a scan
would otherwise flush the point-lookup working set (scan-resistant
caching).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lsm.block import Block
from repro.lsm.block_cache import BlockStack
from repro.lsm.format import BLOCK_TRAILER_SIZE, BlockHandle, unseal_block
from repro.storage.env import RandomAccessFile


@dataclass
class ReadaheadStats:
    sequential_hits: int = 0
    fetches: int = 0
    fetched_bytes: int = 0


class ReadaheadBuffer:
    """Per-file sequential-read detector + prefetch buffer.

    ``get(handle)`` returns the unsealed block payload when it can serve it
    (buffered, or by issuing a readahead fetch after two sequential
    accesses), else None — the caller falls back to its normal path.

    ``initial_window`` seeds the adaptive window (clamped to
    ``readahead_bytes``): the scan-prefetch pipeline passes the previous
    file's grown window so a level iteration does not restart the rampup
    at 4 KiB on every file boundary.
    """

    INITIAL_READAHEAD = 4 << 10

    def __init__(
        self,
        file: RandomAccessFile,
        *,
        readahead_bytes: int = 128 << 10,
        eager: bool = False,
        initial_window: int | None = None,
    ) -> None:
        if readahead_bytes <= 0:
            raise ValueError("readahead_bytes must be positive")
        self.file = file
        self.readahead_bytes = readahead_bytes
        self.eager = eager
        self.stats = ReadaheadStats()
        self._buffer = b""
        self._buffer_base = -1
        self._expected_fwd = -1  # next forward-sequential offset
        self._expected_rev = -1  # offset the next reverse-adjacent block ends at
        self._streak = 0
        # Adaptive sizing (RocksDB-style): start small so short scans are
        # not penalized by overfetch, double on each consecutive fetch.
        # Eager mode (compaction inputs: the whole file *will* be read)
        # skips the rampup and fetches full-size ranges from the first
        # access.
        if eager:
            self._initial_window = readahead_bytes
        elif initial_window is not None and initial_window > 0:
            self._initial_window = min(initial_window, readahead_bytes)
        else:
            self._initial_window = min(self.INITIAL_READAHEAD, readahead_bytes)
        self._current_readahead = self._initial_window

    @property
    def current_window(self) -> int:
        """The adaptive window as grown so far (for cross-file carry)."""
        return self._current_readahead

    def _slice_from_buffer(self, handle: BlockHandle) -> bytes | None:
        if self._buffer_base < 0:
            return None
        start = handle.offset - self._buffer_base
        end = start + handle.size + BLOCK_TRAILER_SIZE
        if start < 0 or end > len(self._buffer):
            return None
        return unseal_block(self._buffer[start:end])

    def _fetch(self, handle: BlockHandle, length: int, reverse: bool) -> None:
        """One ranged read of ``length`` bytes into the buffer: the range
        starting at ``handle``'s block, or (``reverse``) *ending* at it."""
        start = handle.offset
        if reverse:
            block_end = handle.offset + handle.size + BLOCK_TRAILER_SIZE
            start = max(0, block_end - length)
            length = block_end - start
        self._buffer = self.file.read(start, length)
        self._buffer_base = start
        self.stats.fetches += 1
        self.stats.fetched_bytes += len(self._buffer)

    def prime(self, handle: BlockHandle, length: int, *, reverse: bool = False) -> None:
        """Speculatively fetch ``length`` bytes starting at ``handle``.

        Used by the scan-prefetch pipeline: the first ranged GET of a table
        is issued ahead of consumption (on a forked child clock), and the
        buffer is left in established-streak state so the scan both serves
        its opening blocks from the primed bytes and continues fetching at
        the carried window without re-proving sequentiality.

        A ``reverse`` scan consumes *downward* from its boundary block, so
        the speculative fetch covers the range that **ends** at the block
        (the same shape the descending streak detector fetches) — priming
        forward from the table's last block would buffer bytes past the
        end of the file and hide nothing.
        """
        self._fetch(handle, max(length, handle.size + BLOCK_TRAILER_SIZE), reverse)
        self._expected_fwd = handle.offset  # first get() serves this block
        self._expected_rev = -1
        self._streak = 2

    def get(self, handle: BlockHandle) -> bytes | None:
        """Serve a data-block read if it continues a sequential run.

        A non-sequential access *discards* the buffer: the prefetched bytes
        only live for the scan that triggered them (per-iterator semantics,
        like RocksDB's prefetch buffer) — otherwise the buffer would act as
        an unaccounted, never-evicted extra cache.
        """
        raw_len = handle.size + BLOCK_TRAILER_SIZE
        first_access = self._expected_fwd < 0 and self._expected_rev < 0
        forward = handle.offset == self._expected_fwd
        reverse = (
            not self.eager
            and self._expected_rev >= 0
            and handle.offset + raw_len == self._expected_rev
        )
        self._expected_fwd = handle.offset + raw_len
        self._expected_rev = handle.offset
        if not forward and not reverse and not (self.eager and first_access):
            self.invalidate()
            if not self.eager:
                return None
            # Eager scans are declared-sequential: a jump (subcompaction
            # seek) restarts the run at the new offset instead of falling
            # back to per-block fetches.
        buffered = self._slice_from_buffer(handle)
        if buffered is not None:
            self.stats.sequential_hits += 1
            return buffered
        self._streak += 1
        if not self.eager and self._streak < 2:
            return None  # one coincidence is not a scan yet
        # Established sequential pattern: fetch a range in one request,
        # growing geometrically while the scan keeps going. A descending
        # streak fetches the range that *ends* at the current block.
        length = max(self._current_readahead, raw_len)
        self._current_readahead = min(self._current_readahead * 2, self.readahead_bytes)
        self._fetch(handle, length, reverse)
        return self._slice_from_buffer(handle)

    def invalidate(self) -> None:
        self._buffer = b""
        self._buffer_base = -1
        self._streak = 0
        self._current_readahead = self._initial_window


class SequentialStack(BlockStack):
    """One declared-sequential pass over a table (a compaction input).

    Blocks come out of the pass's own eager buffer — one large ranged read
    instead of one per block — parsed and never cached: a one-shot read must
    not evict the point-read working set. What the buffer cannot serve falls
    to the table's own stack.
    """

    __slots__ = ("table", "readahead")

    def __init__(self, table: BlockStack, readahead: ReadaheadBuffer) -> None:
        super().__init__(table.name, table.file, table.path)
        self.table = table
        self.readahead = readahead

    def block(self, handle: BlockHandle) -> Block:
        payload = self.readahead.get(handle)
        return Block(payload) if payload is not None else self.table.block(handle)
