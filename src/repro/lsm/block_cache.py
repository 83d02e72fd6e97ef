"""The block path: how a data block's handle becomes a parsed block.

Every open table reads through one :class:`BlockStack`, which asks a fixed,
declared list of sources in order (:data:`BLOCK_SOURCES`) and stops at the
first that has the block (DESIGN.md, "The block path"):

* ``dram`` — the :class:`LRUBlockCache` of *parsed* blocks, each charged the
  length of its encoded payload: every hit, miss and eviction is what a cache
  of raw payloads would see, and a hit skips the re-parse;
* ``pcache``, ``primed``, ``readahead`` — a store variant's persistent cache
  on the local device, then the scan's range of the table already in memory:
  one its prefetch schedule read ahead of it (``primed``), or one its own
  miss read (``readahead``); the base engine has none of the three,
  :class:`repro.mash.store.MashBlockStack` all of them;
* ``demand`` — a ranged read of the table file, CRC-verified.

A point get reads one block per miss and never reads ahead (DESIGN.md §2,
"Forks without traffic", records the measurement). A scan reads through the
same stack with its :class:`ScanReads`: every cloud table the scan misses on
gets one :class:`ScanBuffer`, filled by one ranged read that runs from the
missed block to whatever the scan can still need
(:meth:`repro.lsm.table_reader.TableReader.scan_span`). The buffer belongs
to the scan, not to the table, so a block served from DRAM or the persistent
cache between two misses costs it nothing. With a prefetch depth the same
:class:`ScanReads` fans the scan's seek out and reads its next tables ahead,
into the same buffers.

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
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.errors import CorruptionError
from repro.lsm.block import Block
from repro.lsm.format import BLOCK_TRAILER_SIZE, BlockHandle, table_file_name, unseal_block
from repro.sim.clock import ForkJoinRegion
from repro.storage.env import RandomAccessFile
from repro.util.encoding import SeekGoal

if TYPE_CHECKING:  # pragma: no cover
    from repro.lsm.table_cache import TableCache
    from repro.lsm.table_reader import TableReader
    from repro.lsm.version import FileMetaData

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

    def scan_window(self) -> int:
        """The longest ranged read a scan's miss on this table issues into
        its :class:`ScanBuffer`; 0 (the base engine): the scan reads block
        by block, and its prefetch only opens the table."""
        return 0

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


class ScanBuffer:
    """One scan's buffered range of one table (see :class:`ScanReads`).

    :meth:`get` serves any block the range holds, in any order: DRAM or
    persistent-cache hits between two of the scan's misses leave it intact.
    :meth:`fill` replaces the range with one ranged read from a block to what
    the scan can still need; ``primed`` says whether the scan's prefetch
    schedule issued it, ahead of the scan, or the scan's own miss did.
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
    row), where it stops (``end``, the seek goal of its end key), one
    :class:`ScanBuffer` per table it has read or primed, and the schedule
    that issues its reads ahead of it.

    The schedule runs when the scan has a prefetch ``depth``
    (``Options.scan_prefetch_depth``) and its tables' Env a clock. Work runs
    on branches forked from the Env's clock (the request's clock inside a
    request scope), so its latency overlaps the scan and only the uncovered
    remainder reaches the scan's clock:

    * :meth:`fan_out` opens and primes the tables the merge reads on its
      first pull as parallel branches of one region, joined strictly: the
      seek costs the slowest of them, not their sum (``seek_fanout``);
    * :meth:`table_started`, when a level reaches a table, joins that
      table's branch with merge semantics (``prefetch_hit``: what finished
      in the scan's past costs nothing) and keeps up to ``depth`` of the
      level's next cloud tables in flight, each opened and primed on a
      branch of its own (``prefetch_issue``);
    * :meth:`finish` abandons the branches the scan never reached
      (``prefetch_waste``): their requests were issued and count, their
      latency never reaches the scan.

    Priming a table is the read the scan's first miss in it would issue
    (:meth:`ScanBuffer.fill`, ``primed``), only earlier, so a scan that
    reaches every table it primes issues the requests a plain scan would.
    A local table is opened when the scan reaches it: the Env says where a
    table lives without opening it, and its stack gives the window
    (:meth:`BlockStack.scan_window`).
    """

    __slots__ = (
        "tables", "remaining", "end", "buffers", "clock", "depth", "_pending", "_ripe", "_seen",
    )  # fmt: skip

    def __init__(
        self,
        tables: TableCache,
        limit: int | None = None,
        end: SeekGoal | None = None,
        depth: int = 0,
    ) -> None:
        self.tables = tables
        self.remaining: int | None = limit
        self.end = end
        self.buffers: dict[str, ScanBuffer] = {}
        self.clock = tables.env.sim_clock() if depth > 0 else None
        self.depth = depth if self.clock is not None else 0
        """In-flight prefetches the schedule keeps; 0: it does nothing."""
        self._pending: dict[int, ForkJoinRegion] = {}
        self._ripe: set[int] = set()  # reaped branches the scan has not reached
        self._seen: set[int] = set()  # tables fanned out to or prefetched

    def buffer(self, reader: TableReader) -> ScanBuffer:
        """The scan's buffer of ``reader``'s table, made empty on first ask."""
        buffer = self.buffers.get(reader.name)
        if buffer is None:
            buffer = self.buffers[reader.name] = ScanBuffer(reader, self)
        return buffer

    def fan_out(self, metas: Sequence[FileMetaData], target: SeekGoal | None) -> None:
        """Open and prime ``metas`` — every table the merge reads on its first
        pull — on the branches of one region, before the scan starts."""
        if not metas:
            return
        region = self._region()
        for meta in metas:
            self._seen.add(meta.number)
            with region.branch():
                self._prime(meta.number, target)
        region.join()
        self.tables.path.event("seek_fanout")

    def table_started(
        self, files: Sequence[FileMetaData], index: int, target: SeekGoal | None
    ) -> None:
        """A level is about to read ``files[index]``: settle its branch, then
        top the schedule up from the level's next cloud tables."""
        tables = self.tables
        self._arrive(files[index].number)
        for meta in files[index + 1 :]:
            if len(self._pending) >= self.depth:
                break
            number = meta.number
            if number in self._seen:
                continue
            self._seen.add(number)
            if not tables.env.is_cloud(table_file_name(tables.prefix, number)):
                continue
            if tables.has_reader(number) and tables.get_reader(number).stack.scan_window() <= 0:
                continue  # already open and nothing to prime: free handoff
            region = self._region()
            with region.branch():
                self._prime(number, target)
            self._pending[number] = region
            tables.path.event("prefetch_issue")

    def finish(self) -> None:
        """The scan ended: every branch it did not reach is waste, and none
        is joined — the scan never waited for it."""
        for _ in range(len(self._pending) + len(self._ripe)):
            self.tables.path.event("prefetch_waste")
        self._pending.clear()
        self._ripe.clear()

    def _arrive(self, number: int) -> None:
        """The scan reached table ``number``: settle its branch, then reap.

        A branch whose clock already lies at or before the scan's is reaped:
        joined at no cost, it frees its slot in ``depth`` (so a far table
        of another level cannot starve the level being read), and becomes a
        hit only if the scan reaches it.
        """
        region = self._pending.pop(number, None)
        if region is not None:
            region.join(strict=False)
        if region is not None or number in self._ripe:
            self._ripe.discard(number)
            self.tables.path.event("prefetch_hit")
        for other, branch in list(self._pending.items()):
            if branch.children and max(c.now for c in branch.children) <= branch.parent.now:
                del self._pending[other]
                branch.join(strict=False)
                self._ripe.add(other)

    def _region(self) -> ForkJoinRegion:
        """A region forked from the scan's clock over the Env's hosts."""
        assert self.clock is not None  # the schedule runs only with a clock
        return ForkJoinRegion(self.clock, self.tables.env.clock_hosts())

    def _prime(self, number: int, target: SeekGoal | None) -> None:
        """Open table ``number`` and, when its stack reads scans ahead, issue
        the read the scan's first miss in it would issue."""
        reader = self.tables.get_reader(number)
        window = reader.stack.scan_window()
        if window <= 0:
            return
        handle = reader.edge_data_handle(target)
        if handle is not None:
            self.buffer(reader).fill(handle, window, primed=True)


class SequentialStack(BlockStack):
    """One declared-sequential pass over a table (a compaction input).

    Blocks come out of the pass's own window of the file — one ranged read
    of ``window`` bytes from a block the window does not hold, instead of
    one read per block — parsed and never cached: no cache is looked up or
    filled and no source counted. ``fetches`` / ``fetched_bytes`` count the
    pass's reads. ``on_block(name, offset)``, when given, is told of every
    block served (the persistent store's heat tracker).
    """

    __slots__ = ("window", "on_block", "base", "data", "fetches", "fetched_bytes")

    def __init__(
        self,
        name: str,
        file: RandomAccessFile,
        path: BlockPath,
        window: int,
        on_block: Callable[[str, int], None] | None = None,
    ) -> None:
        super().__init__(name, file, path)
        self.window = window
        self.on_block = on_block
        self.base = 0
        self.data = b""
        self.fetches = 0
        self.fetched_bytes = 0

    def prime(self, handle: BlockHandle) -> None:
        """Issue now the read the pass's first :meth:`block` (of ``handle``)
        would issue: several passes then fetch at once, before any is read."""
        self.data = self.file.read(
            handle.offset, max(self.window, handle.size + BLOCK_TRAILER_SIZE)
        )
        self.base = handle.offset
        self.fetches += 1
        self.fetched_bytes += len(self.data)

    def block(self, handle: BlockHandle) -> Block:
        start = handle.offset - self.base
        end = start + handle.size + BLOCK_TRAILER_SIZE
        if start < 0 or end > len(self.data):
            self.prime(handle)
            start, end = 0, handle.size + BLOCK_TRAILER_SIZE
            if end > len(self.data):
                raise CorruptionError(f"short block read in a sequential pass of {self.name}")
        if self.on_block is not None:
            self.on_block(self.name, handle.offset)
        return Block(unseal_block(self.data[start:end]))
