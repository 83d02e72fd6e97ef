"""The block path: how a data block's handle becomes a parsed block.

Every open table reads through one :class:`BlockStack`, which asks a fixed,
declared list of sources in order (:data:`BLOCK_SOURCES`) and stops at the
first that has the block (DESIGN.md, "The block path"):

* ``dram`` — the :class:`LRUBlockCache` of *parsed* blocks, each charged the
  length of its encoded payload: every hit, miss and eviction is what a cache
  of raw payloads would see, and a hit skips the re-parse;
* ``pcache``, ``primed``, ``readahead`` — a store variant's persistent cache
  on the local device, then a range of the table already in memory: one the
  scan-prefetch pipeline fetched (``primed``), or one the scan's own miss or
  the point-read detector fetched (``readahead``); the base engine has none
  of the three, :class:`repro.mash.store.MashBlockStack` all of them;
* ``demand`` — a ranged read of the table file, CRC-verified.

A scan reads through the same stack with its :class:`ScanReads`: every
cloud table the scan misses on gets one :class:`ScanBuffer`, filled by one
ranged read that runs from the missed block to whatever the scan can still
need (:meth:`repro.lsm.table_reader.TableReader.scan_span`). The buffer
belongs to the scan, not to the table, so a block served from DRAM or the
persistent cache between two misses costs it nothing, and a point get never
sees it.

A source counts each block it serves under its own name in
:attr:`BlockPath.hits` and posts one event for it. The payload a lower source
returns is parsed once, in :meth:`BlockStack.block`, and only then admitted to
DRAM: a payload that fails its CRC or does not parse is never cached.

A compaction reads each input in one :class:`SequentialStack` instead
(:meth:`BlockStack.sequential`), which fills no cache: a one-shot merge must
not evict the point-read working set.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CorruptionError
from repro.lsm.block import Block
from repro.lsm.format import BLOCK_TRAILER_SIZE, BlockHandle, unseal_block
from repro.storage.env import RandomAccessFile
from repro.util.encoding import SeekGoal

if TYPE_CHECKING:  # pragma: no cover
    from repro.lsm.table_reader import TableReader

BLOCK_SOURCES = ("dram", "pcache", "primed", "readahead", "demand")
"""The sources of a data block, in the order a read tries them — the one
spelling used by hit counters, ``metrics()`` (``blocks.<source>``),
``dump_metrics`` and ``explain``."""


class LRUBlockCache:
    """Byte-budgeted LRU cache of parsed data blocks."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple[str, int], Block] = OrderedDict()
        self._offsets: dict[str, set[int]] = {}  # file -> offsets held, for evict_file
        self._used = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, file_name: str, offset: int) -> Block | None:
        key = (file_name, offset)
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, file_name: str, offset: int, block: Block) -> None:
        """Insert (or refresh) an entry, evicting LRU victims as needed.

        Blocks whose payload exceeds the whole budget are not cached at all.
        A block the cache holds keeps the runs its seeks decode
        (:attr:`Block.runs`): a hit does not decode again.
        """
        if block.size > self.capacity_bytes:
            return
        key = (file_name, offset)
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= old.size
        else:
            self._offsets.setdefault(file_name, set()).add(offset)
        if block.runs is None:
            block.runs = {}
        self._entries[key] = block
        self._used += block.size
        while self._used > self.capacity_bytes:
            (victim_file, victim_offset), victim = self._entries.popitem(last=False)
            self._used -= victim.size
            offsets = self._offsets[victim_file]
            offsets.discard(victim_offset)
            if not offsets:
                del self._offsets[victim_file]

    def evict_file(self, file_name: str) -> int:
        """Drop every block of ``file_name`` (table deleted); returns count."""
        offsets = self._offsets.pop(file_name, ())
        for offset in offsets:
            self._used -= self._entries.pop((file_name, offset)).size
        return len(offsets)

    def clear(self) -> None:
        self._entries.clear()
        self._offsets.clear()
        self._used = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _no_event(label: str) -> None:
    """Event sink of a store nobody traces."""


class BlockPath:
    """What the stacks of one store share: the DRAM cache, the per-source
    hit counters, the bloom-probe tally and the tracer's event sink."""

    __slots__ = ("dram", "hits", "bloom", "event")

    def __init__(
        self, dram: LRUBlockCache | None = None, event: Callable[[str], None] | None = None
    ) -> None:
        self.dram = dram
        self.hits: dict[str, int] = dict.fromkeys(BLOCK_SOURCES, 0)
        """Data blocks served, by source (:data:`BLOCK_SOURCES` order)."""
        self.bloom: dict[str, int] = {
            "bloom_checked": 0,
            "bloom_useful": 0,
            "bloom_false_positive": 0,
        }
        """Bloom-probe outcomes summed over every reader, open or gone
        (per table: ``TableReader.filter_stats``)."""
        self.event = event if event is not None else _no_event
        """``(label)`` sink for path events — :meth:`Tracer.event` in a
        traced store. Looked up per event, so a store may repoint it."""


class BlockStack:
    """One open table's ordered block sources (see the module docstring).

    The base engine's stack is ``dram → demand``. A store variant subclasses
    it and overrides :meth:`fetch` (the sources below DRAM) and, where table
    metadata has a cache of its own, :meth:`meta` and :meth:`footer`.
    """

    __slots__ = ("name", "file", "path")

    def __init__(self, name: str, file: RandomAccessFile, path: BlockPath | None = None) -> None:
        self.name = name
        self.file = file
        self.path = path if path is not None else BlockPath()

    def block(self, handle: BlockHandle, scan: ScanBuffer | None = None) -> Block:
        """The parsed data block at ``handle``, from the first source that has
        it; ``scan`` is the asking scan's buffer of this table."""
        path = self.path
        dram = path.dram
        if dram is None:
            return Block(self.fetch(handle) if scan is None else self.scan_fetch(handle, scan))
        # LRUBlockCache.get, inlined: the dram source costs no frame of its own.
        key = (self.name, handle.offset)
        block = dram._entries.get(key)
        if block is not None:
            dram._entries.move_to_end(key)
            dram.hits += 1
            path.hits["dram"] += 1
            path.event("dram_hit")
            return block
        dram.misses += 1
        # Block() raises before put: a corrupt payload is never cached.
        block = Block(self.fetch(handle) if scan is None else self.scan_fetch(handle, scan))
        dram.put(self.name, handle.offset, block)
        return block

    def fetch(self, handle: BlockHandle) -> bytes:
        """A data block's payload from the sources below DRAM."""
        payload = self.read(handle)
        self.path.hits["demand"] += 1
        self.path.event("demand_read")
        return payload

    def scan_fetch(self, handle: BlockHandle, scan: ScanBuffer) -> bytes:
        """:meth:`fetch` for a scan: a store variant whose tables may sit in
        the cloud serves the scan from ``scan`` (see :class:`ScanBuffer`)."""
        return self.fetch(handle)

    def meta(self, handle: BlockHandle, kind: str) -> bytes:
        """An ``"index"`` or ``"filter"`` block's payload (read at table open)."""
        return self.read(handle)

    def footer(self) -> bytes | None:
        """The table's raw footer when a metadata cache has it pinned: the
        open then skips both the size probe and the footer read."""
        return None

    def read(self, handle: BlockHandle) -> bytes:
        """The demand read: payload + CRC trailer in one ranged read, verified."""
        raw = self.file.read(handle.offset, handle.size + BLOCK_TRAILER_SIZE)
        if len(raw) != handle.size + BLOCK_TRAILER_SIZE:
            raise CorruptionError(
                f"short block read: wanted {handle.size + BLOCK_TRAILER_SIZE},"
                f" got {len(raw)}"
            )
        return unseal_block(raw)

    def sequential(self, window: int) -> SequentialStack:
        """One declared-sequential pass over this table, ``window`` bytes per
        ranged read (a compaction input). A store variant overrides it where
        the pass must keep a side effect of its own or read another copy."""
        return SequentialStack(self.name, self.file, self.path, window)


StackFactory = Callable[[str, RandomAccessFile, BlockPath], BlockStack]
"""``(file_name, file, path)`` → a table's stack (``DB.open(stack_factory=...)``)."""


# -- sequential readahead -----------------------------------------------------


@dataclass
class ReadaheadStats:
    sequential_hits: int = 0
    fetches: int = 0
    fetched_bytes: int = 0


class ReadaheadBuffer:
    """Per-file sequential-read detector + prefetch buffer.

    Like RocksDB's iterator readahead, it turns a run of per-block ranged
    reads into one large read. The streak detector recognizes ascending
    offsets and descending block-adjacent offsets, whose fetch covers the
    range *ending* at the current block. Two uses: a compaction's pass
    (``eager``, :class:`SequentialStack`), and a cloud table's point gets —
    a scan reads through its own :class:`ScanBuffer` and never reaches a
    table's detector.

    What still reaches the detector is point-get traffic, so its figures
    come from there. Per ``benchmarks.perf --workload`` run at seed 42 (two
    replicas), the non-eager buffers issue 283 / 0 / 68 / 336 / 0 range
    fetches on ``fill_random`` / ``read_local`` / ``read_cloud`` /
    ``mixed_a`` / ``scan_e`` (the first and fourth from ascending
    read-backs), and the descending case fires 0 / 30 / 1 274 / 64 / 0
    times for 0 / 0 / 36 / 2 / 0 of those fetches. Without it,
    ``read_cloud``'s ``sim_ops_s`` moves 62.422 → 62.462 (+0.06 %) and its
    write amplification 22.083 → 22.091, ``mixed_a``'s cloud requests per
    kop 143.27 → 143.31; the other three workloads are bit-equal. It no
    longer earns a measurable win; whether it goes is ROADMAP item 10's
    call, since deleting it moves ``read_cloud``'s figures.

    ``get(handle)`` returns the unsealed block payload when it can serve it
    (buffered, or by issuing a readahead fetch after two sequential
    accesses), else None — the caller falls back to its normal path.
    """

    INITIAL_READAHEAD = 4 << 10

    def __init__(
        self,
        file: RandomAccessFile,
        *,
        readahead_bytes: int = 128 << 10,
        eager: bool = False,
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
        self._expected_rev = -1  # offset the next descending-adjacent block ends at
        self._streak = 0
        # Adaptive sizing (RocksDB-style): start small so a coincidence is
        # not penalized by overfetch, double on each consecutive fetch.
        # Eager mode (compaction inputs: the whole file *will* be read)
        # skips the rampup and fetches full-size ranges from the first
        # access.
        self._start_window = (
            readahead_bytes if eager else min(self.INITIAL_READAHEAD, readahead_bytes)
        )
        self._current_readahead = self._start_window

    def _slice_from_buffer(self, handle: BlockHandle) -> bytes | None:
        if self._buffer_base < 0:
            return None
        start = handle.offset - self._buffer_base
        end = start + handle.size + BLOCK_TRAILER_SIZE
        if start < 0 or end > len(self._buffer):
            return None
        return unseal_block(self._buffer[start:end])

    def _fetch(self, handle: BlockHandle, length: int, descending: bool) -> None:
        """One ranged read of ``length`` bytes into the buffer: the range
        starting at ``handle``'s block, or (``descending``) *ending* at it."""
        start = handle.offset
        if descending:
            block_end = handle.offset + handle.size + BLOCK_TRAILER_SIZE
            start = max(0, block_end - length)
            length = block_end - start
        self._buffer = self.file.read(start, length)
        self._buffer_base = start
        self.stats.fetches += 1
        self.stats.fetched_bytes += len(self._buffer)

    def prime(self, handle: BlockHandle, length: int) -> None:
        """Fetch ``length`` bytes starting at ``handle`` ahead of the first
        :meth:`get`, leaving the buffer in established-streak state so the
        pass serves its opening blocks from the primed bytes and continues
        without re-proving sequentiality (:meth:`SequentialStack.prime`).
        """
        self._fetch(handle, max(length, handle.size + BLOCK_TRAILER_SIZE), descending=False)
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
        descending = (
            not self.eager
            and self._expected_rev >= 0
            and handle.offset + raw_len == self._expected_rev
        )
        self._expected_fwd = handle.offset + raw_len
        self._expected_rev = handle.offset
        if not forward and not descending and not (self.eager and first_access):
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
        self._fetch(handle, length, descending)
        return self._slice_from_buffer(handle)

    def invalidate(self) -> None:
        self._buffer = b""
        self._buffer_base = -1
        self._streak = 0
        self._current_readahead = self._start_window


class ScanBuffer:
    """One scan's buffered range of one table (see :class:`ScanReads`).

    :meth:`get` serves any block the range holds, in any order: DRAM or
    persistent-cache hits between two of the scan's misses leave it intact.
    :meth:`fill` replaces the range with one ranged read from a block to what
    the scan can still need; ``primed`` says whether the scan-prefetch
    pipeline issued it, ahead of the scan, or the scan's own miss did.
    """

    __slots__ = ("reader", "reads", "base", "data", "primed")

    def __init__(self, reader: TableReader, reads: ScanReads) -> None:
        self.reader = reader
        self.reads = reads
        self.base = -1
        self.data = b""
        self.primed = False

    def get(self, handle: BlockHandle) -> bytes | None:
        """``handle``'s unsealed payload if the range holds it, else None."""
        start = handle.offset - self.base
        end = start + handle.size + BLOCK_TRAILER_SIZE
        if start < 0 or end > len(self.data):  # an empty buffer holds nothing
            return None
        return unseal_block(self.data[start:end])

    def fill(self, handle: BlockHandle, window: int, *, primed: bool = False) -> bytes:
        """One ranged read from ``handle``'s block, at most ``window`` bytes
        long and cut to what the scan can still need; returns ``handle``'s
        payload, CRC-verified."""
        reads = self.reads
        length = self.reader.scan_span(handle, reads.remaining, reads.end, window)
        self.data = self.reader.file.read(handle.offset, length)
        self.base = handle.offset
        self.primed = primed
        payload = self.get(handle)
        if payload is None:
            raise CorruptionError(
                f"short block read: wanted {handle.size + BLOCK_TRAILER_SIZE},"
                f" got {len(self.data)}"
            )
        return payload


class ScanReads:
    """What one scan's reads share: how many rows it may still yield
    (``remaining``, None when unlimited — ``DB.scan`` counts it down per
    row), where it stops (``end``, the seek goal of its end key) and one
    :class:`ScanBuffer` per table it has read or primed."""

    __slots__ = ("remaining", "end", "buffers")

    def __init__(self, limit: int | None = None, end: SeekGoal | None = None) -> None:
        self.remaining: int | None = limit
        self.end = end
        self.buffers: dict[str, ScanBuffer] = {}

    def buffer(self, reader: TableReader) -> ScanBuffer:
        """The scan's buffer of ``reader``'s table, made empty on first ask."""
        buffer = self.buffers.get(reader.name)
        if buffer is None:
            buffer = self.buffers[reader.name] = ScanBuffer(reader, self)
        return buffer


class SequentialStack(BlockStack):
    """One declared-sequential pass over a table (a compaction input).

    Blocks come out of the pass's own eager buffer — one ranged read per
    ``window`` bytes instead of one per block — parsed and never cached: no
    cache is looked up or filled and no source counted. ``on_block(name,
    offset)``, when given, is told of every block served (the persistent
    store's heat tracker). A block the buffer cannot serve is a short read.
    """

    __slots__ = ("readahead", "on_block")

    def __init__(
        self,
        name: str,
        file: RandomAccessFile,
        path: BlockPath,
        window: int,
        on_block: Callable[[str, int], None] | None = None,
    ) -> None:
        super().__init__(name, file, path)
        self.readahead = ReadaheadBuffer(file, readahead_bytes=window, eager=True)
        self.on_block = on_block

    def prime(self, handle: BlockHandle) -> None:
        """Issue now the read the pass's first :meth:`block` (of ``handle``)
        would issue: several passes then fetch at once, before any is read."""
        self.readahead.prime(handle, self.readahead.readahead_bytes)

    def block(self, handle: BlockHandle) -> Block:
        payload = self.readahead.get(handle)
        if payload is None:
            raise CorruptionError(f"short block read in a sequential pass of {self.name}")
        if self.on_block is not None:
            self.on_block(self.name, handle.offset)
        return Block(payload)
