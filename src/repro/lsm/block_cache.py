"""The block path: how a data block's handle becomes a parsed block.

Every open table reads through one :class:`BlockStack`, which asks a fixed,
declared list of sources in order (:data:`BLOCK_SOURCES`) and stops at the
first that has the block (DESIGN.md, "The block path"):

* ``dram`` — the :class:`LRUBlockCache` of *parsed* blocks, each charged the
  length of its encoded payload: every hit, miss and eviction is what a cache
  of raw payloads would see, and a hit skips the re-parse;
* ``pcache``, ``primed``, ``readahead`` — a store variant's persistent cache
  on the local device, the scan-prefetch pipeline's primed buffers and the
  table's own sequential readahead; the base engine has none of the three,
  :class:`repro.mash.store.MashBlockStack` all of them;
* ``demand`` — a ranged read of the table file, CRC-verified.

A source counts each block it serves under its own name in
:attr:`BlockPath.hits` and posts one event for it. The payload a lower source
returns is parsed once, in :meth:`BlockStack.block`, and only then admitted to
DRAM: a payload that fails its CRC or does not parse is never cached.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

from repro.errors import CorruptionError
from repro.lsm.block import Block
from repro.lsm.format import BLOCK_TRAILER_SIZE, BlockHandle, unseal_block
from repro.storage.env import RandomAccessFile

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

    def block(self, handle: BlockHandle) -> Block:
        """The parsed data block at ``handle``, from the first source that has it."""
        path = self.path
        dram = path.dram
        if dram is None:
            return Block(self.fetch(handle))
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
        block = Block(self.fetch(handle))  # raises before put: never cached corrupt
        dram.put(self.name, handle.offset, block)
        return block

    def fetch(self, handle: BlockHandle) -> bytes:
        """A data block's payload from the sources below DRAM."""
        payload = self.read(handle)
        self.path.hits["demand"] += 1
        self.path.event("demand_read")
        return payload

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


StackFactory = Callable[[str, RandomAccessFile, BlockPath], BlockStack]
"""``(file_name, file, path)`` → a table's stack (``DB.open(stack_factory=...)``)."""
