"""In-memory (DRAM) LRU block cache.

Keys are ``(file_name, offset)``; values are *parsed* data blocks, each
charged the length of its encoded payload — every hit, miss and eviction is
what a cache of raw payloads would see, and a hit skips the re-parse.
Capacity is a byte budget, evicting least-recently-used entries. This is
RocksDB's ordinary block cache — distinct from RocksMash's *persistent*
cache (:mod:`repro.mash.pcache`), which survives restarts and lives on the
local device. The two compose: DRAM cache in front
(:func:`load_data_block`), persistent cache behind, in the loader chain.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable

from repro.lsm.block import Block
from repro.lsm.format import BlockHandle


class LRUBlockCache:
    """Byte-budgeted LRU cache of parsed data blocks."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple[str, int], Block] = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.on_hit: Callable[[str], None] | None = None
        """Optional ``(file_name)`` observer of :func:`load_data_block` hits."""

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
        """
        if block.size > self.capacity_bytes:
            return
        key = (file_name, offset)
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= old.size
        self._entries[key] = block
        self._used += block.size
        while self._used > self.capacity_bytes:
            _, victim = self._entries.popitem(last=False)
            self._used -= victim.size

    def evict_file(self, file_name: str) -> int:
        """Drop every block of ``file_name`` (table deleted); returns count."""
        victims = [k for k in self._entries if k[0] == file_name]
        for key in victims:
            self._used -= self._entries.pop(key).size
        return len(victims)

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def load_data_block(
    cache: LRUBlockCache | None,
    loader: Callable[[str, BlockHandle, str], bytes],
    file_name: str,
    handle: BlockHandle,
) -> Block:
    """The one place a data block is parsed, for table readers and the
    sorted view alike: the DRAM cache sits here, above the bytes-returning
    ``loader`` chain (pcache → primed → readahead → direct). A payload that
    does not parse raises before ``put``: a corrupt block is never cached."""
    if cache is None:
        return Block(loader(file_name, handle, "data"))
    block = cache.get(file_name, handle.offset)
    if block is None:
        block = Block(loader(file_name, handle, "data"))
        cache.put(file_name, handle.offset, block)
    elif cache.on_hit is not None:
        cache.on_hit(file_name)
    return block
