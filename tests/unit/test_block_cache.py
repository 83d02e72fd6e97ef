"""Unit tests for the DRAM LRU block cache and the block stack above the file."""

import pytest

from repro.errors import CorruptionError
from repro.lsm.block import Block, BlockBuilder
from repro.lsm.block_cache import (
    BLOCK_SOURCES,
    BlockPath,
    BlockStack,
    LRUBlockCache,
    SequentialStack,
)
from repro.lsm.format import BLOCK_TRAILER_SIZE, BlockHandle, seal_block
from repro.util.encoding import TYPE_VALUE, internal_order, make_internal_key

KEY = make_internal_key(b"k", 1, TYPE_VALUE)


def payload_of(size: int, fill: bytes = b"x") -> bytes:
    """A one-entry data-block payload of exactly ``size`` encoded bytes."""
    builder = BlockBuilder()
    builder.fill([(KEY, fill * (size - 20))])  # 3 B entry header + 9 B key + 8 B trailer
    payload = builder.finish()
    assert len(payload) == size
    return payload


def block(size: int, fill: bytes = b"x") -> Block:
    """The parsed block the cache holds, charged ``size`` bytes."""
    return Block(payload_of(size, fill))


class FakeFile:
    """A table file whose every block is ``payload``, sealed; counts reads."""

    name = "f"

    def __init__(self, payload):
        self.raw = seal_block(payload)
        self.reads = []

    def read(self, offset, length):
        self.reads.append((offset, length))
        return self.raw[:length]


def read(cache, name, offset, size=30, fill=b"x"):
    """Read the ``size``-byte block at ``offset`` of table ``name`` the way
    every read does, through its :class:`BlockStack`: the block, and whether
    the DRAM cache served it (the file was not read)."""
    file = FakeFile(payload_of(size, fill))
    got = BlockStack(name, file, BlockPath(cache)).block(BlockHandle(offset, size))
    return got, not file.reads


class TestLRUBlockCache:
    """The DRAM cache as the stack's ``dram`` source reads and fills it."""

    def test_miss_then_hit(self):
        cache = LRUBlockCache(1000)
        stored, hit = read(cache, "f", 0, 27)
        assert not hit
        again, hit = read(cache, "f", 0, 27)
        assert hit and again is stored
        assert cache._used == 27  # the payload length, not the parsed size
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_lru_order(self):
        cache = LRUBlockCache(90)
        for offset in (0, 1, 2):
            read(cache, "f", offset)
        assert read(cache, "f", 0)[1]  # a hit refreshes 0
        read(cache, "f", 3)  # evicts 1 (LRU)
        assert list(cache._entries) == [("f", 2), ("f", 0), ("f", 3)]
        assert (cache.hits, cache.misses) == (1, 4)

    def test_oversized_entry_not_cached(self):
        cache = LRUBlockCache(30)
        assert not read(cache, "f", 0, 120)[1]
        assert not read(cache, "f", 0, 120)[1]  # read from the file again
        assert (len(cache._entries), cache._used, cache.misses) == (0, 0, 2)

    def test_replace_same_key(self):
        """The stack puts a block only after a miss; ``put`` of a key the
        cache holds still charges the newer block alone."""
        cache = LRUBlockCache(100)
        cache.put("f", 0, block(30, b"a"))
        newer = block(40, b"b")
        cache.put("f", 0, newer)
        assert read(cache, "f", 0, 40) == (newer, True)
        assert cache._used == 40

    def test_evict_file(self):
        cache = LRUBlockCache(1000)
        read(cache, "f1", 0, 20)
        read(cache, "f1", 10, 21)
        kept, _ = read(cache, "f2", 0, 22)
        assert cache.evict_file("f1") == 2
        assert list(cache._entries) == [("f2", 0)]
        assert read(cache, "f2", 0, 22) == (kept, True)
        assert cache._used == 22

    def test_evict_file_leaves_the_lru_order_of_the_rest(self):
        cache = LRUBlockCache(100)
        for name, offset in [("a", 0), ("b", 0), ("a", 1), ("c", 0), ("b", 1)]:
            read(cache, name, offset, 20)
        assert read(cache, "b", 0, 20)[1]  # order now: a0 a1 c0 b1 b0
        assert cache.evict_file("a") == 2
        assert cache.evict_file("a") == 0
        assert list(cache._entries) == [("c", 0), ("b", 1), ("b", 0)]
        assert cache._offsets == {"b": {0, 1}, "c": {0}}
        for offset in (0, 1, 2):  # over budget at d2: evicts c0, the oldest
            read(cache, "d", offset, 20)
        assert list(cache._entries) == [("b", 1), ("b", 0), ("d", 0), ("d", 1), ("d", 2)]
        assert cache._offsets == {"b": {0, 1}, "d": {0, 1, 2}}  # no empty set left for c
        assert cache._used == 100

    def test_budget_respected(self):
        cache = LRUBlockCache(250)
        for i in range(50):
            read(cache, "f", i, 25)
        assert cache._used <= 250
        assert len(cache._entries) <= 10

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUBlockCache(-1)


class TestLoadDataBlock:
    """``BlockStack.block``: the parsed DRAM cache above the demand read."""

    HANDLE = BlockHandle(64, 30)

    def stack(self, cache, payload=None):
        events = []
        file = FakeFile(payload_of(30) if payload is None else payload)
        return BlockStack("f", file, BlockPath(cache, events.append)), file, events

    def test_miss_parses_and_caches_then_hit_skips_the_loader(self):
        cache = LRUBlockCache(1000)
        stack, file, events = self.stack(cache)
        first = stack.block(self.HANDLE)
        assert list(first) == [(*internal_order(KEY), b"x" * 10)]
        assert (len(cache._entries), cache._used, events) == (1, 30, ["demand_read"])
        assert stack.block(self.HANDLE) is first
        assert file.reads == [(64, 30 + BLOCK_TRAILER_SIZE)]
        assert events == ["demand_read", "dram_hit"]
        assert (cache.hits, cache.misses) == (1, 1)
        assert stack.path.hits == {"dram": 1, "pcache": 0, "primed": 0, "readahead": 0, "demand": 1}
        assert tuple(stack.path.hits) == BLOCK_SOURCES

    def test_without_a_cache_every_call_loads(self):
        stack, file, _ = self.stack(None)
        a = stack.block(self.HANDLE)
        b = stack.block(self.HANDLE)
        assert a is not b and list(a) == list(b)
        assert len(file.reads) == 2
        assert a.runs is None  # nothing holds the block: it keeps no decoded runs
        assert a.rows() == list(a) and a.rows() is not a.rows()  # nor the list a scan reads

    def test_a_held_block_decodes_a_run_once(self):
        stack, _, _ = self.stack(LRUBlockCache(1000))
        block = stack.block(self.HANDLE)
        assert block.runs == {}
        goal = internal_order(KEY)
        assert block.first(goal) == (*goal, b"x" * 10)
        (run,) = block.runs.values()
        assert next(block.seek(goal)) is run[0]  # the kept run, not a second decode
        assert list(block) == run and block.runs == {1: run}  # a walk keeps nothing more

    def test_a_held_block_keeps_the_list_a_scan_reads(self):
        stack, _, _ = self.stack(LRUBlockCache(1000))
        rows = stack.block(self.HANDLE).rows()
        assert rows == [(*internal_order(KEY), b"x" * 10)]
        assert stack.block(self.HANDLE).rows() is rows  # a hit does not decode again

    @pytest.mark.parametrize(
        "payload",
        [
            b"\x01",  # too small for a restart count
            payload_of(30)[:-4] + b"\xff\xff\xff\x7f",  # restart array larger than block
            payload_of(30)[:-8] + b"\x05\x00\x00\x00\x01\x00\x00\x00",  # restart 0 != 0
        ],
    )
    def test_corrupt_payload_raises_and_is_never_cached(self, payload):
        cache = LRUBlockCache(1000)
        cache.put("g", 0, block(25))
        stack, _, _ = self.stack(cache, payload)
        handle = BlockHandle(0, len(payload))
        with pytest.raises(CorruptionError):
            stack.block(handle)
        assert (len(cache._entries), cache._used) == (1, 25)
        # and again: nothing was cached, so the file is read a second time
        with pytest.raises(CorruptionError):
            stack.block(handle)
        assert cache.misses == 2

    def test_a_payload_failing_its_crc_is_never_cached(self):
        cache = LRUBlockCache(1000)
        stack, file, _ = self.stack(cache)
        file.raw = file.raw[:-1] + bytes([file.raw[-1] ^ 1])
        with pytest.raises(CorruptionError, match="checksum"):
            stack.block(self.HANDLE)
        assert not cache._entries

    def test_a_sequential_pass_reads_its_buffer_and_caches_nothing(self):
        cache = LRUBlockCache(1000)
        stack, file, events = self.stack(cache)
        pass_stack = stack.sequential(4096)
        assert list(pass_stack.block(self.HANDLE)) == [(*internal_order(KEY), b"x" * 10)]
        assert file.reads == [(64, 4096)]  # one window, from the first block on
        assert (len(cache._entries), cache.hits, cache.misses, events) == (0, 0, 0, [])
        assert not any(stack.path.hits.values())

    def test_a_sequential_pass_reports_every_block_it_serves(self):
        stack, file, _ = self.stack(LRUBlockCache(1000))
        served = []
        pass_stack = SequentialStack("f", file, stack.path, 4096, on_block=lambda *a: served.append(a))
        pass_stack.block(self.HANDLE)
        pass_stack.block(BlockHandle(128, 30))  # a jump restarts the window
        assert served == [("f", 64), ("f", 128)]
        assert len(file.reads) == 2

    def test_a_short_read_in_a_sequential_pass_raises(self):
        cache = LRUBlockCache(1000)
        stack, file, _ = self.stack(cache)
        file.raw = file.raw[:-1]
        with pytest.raises(CorruptionError, match="short block read"):
            stack.sequential(4096).block(self.HANDLE)
        assert not cache._entries
