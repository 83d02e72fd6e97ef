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
    builder.add(KEY, fill * (size - 20))  # 3 B entry header + 9 B key + 8 B trailer
    payload = builder.finish()
    assert len(payload) == size
    return payload


def block(size: int, fill: bytes = b"x") -> Block:
    """The parsed block the cache holds, charged ``size`` bytes."""
    return Block(payload_of(size, fill))


class TestLRUBlockCache:
    def test_miss_then_hit(self):
        cache = LRUBlockCache(1000)
        assert cache.get("f", 0) is None
        stored = block(27)
        cache.put("f", 0, stored)
        assert cache.get("f", 0) is stored
        assert cache.used_bytes == 27  # the payload length, not the parsed size
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_eviction_lru_order(self):
        cache = LRUBlockCache(90)
        cache.put("f", 0, block(30))
        cache.put("f", 1, block(30))
        cache.put("f", 2, block(30))
        cache.get("f", 0)  # refresh 0
        cache.put("f", 3, block(30))  # evicts 1 (LRU)
        assert cache.get("f", 0) is not None
        assert cache.get("f", 1) is None
        assert cache.get("f", 3) is not None

    def test_oversized_entry_not_cached(self):
        cache = LRUBlockCache(30)
        cache.put("f", 0, block(120))
        assert cache.get("f", 0) is None
        assert cache.used_bytes == 0

    def test_replace_same_key(self):
        cache = LRUBlockCache(100)
        cache.put("f", 0, block(30, b"a"))
        newer = block(40, b"b")
        cache.put("f", 0, newer)
        assert cache.get("f", 0) is newer
        assert cache.used_bytes == 40

    def test_evict_file(self):
        cache = LRUBlockCache(1000)
        cache.put("f1", 0, block(20))
        cache.put("f1", 10, block(21))
        kept = block(22)
        cache.put("f2", 0, kept)
        assert cache.evict_file("f1") == 2
        assert cache.get("f1", 0) is None
        assert cache.get("f2", 0) is kept
        assert cache.used_bytes == 22

    def test_evict_file_leaves_the_lru_order_of_the_rest(self):
        cache = LRUBlockCache(100)
        for name, offset in [("a", 0), ("b", 0), ("a", 1), ("c", 0), ("b", 1)]:
            cache.put(name, offset, block(20))
        cache.get("b", 0)  # order now: a0 a1 c0 b1 b0
        assert cache.evict_file("a") == 2
        assert cache.evict_file("a") == 0
        assert list(cache._entries) == [("c", 0), ("b", 1), ("b", 0)]
        assert cache._offsets == {"b": {0, 1}, "c": {0}}
        cache.put("d", 0, block(20))
        cache.put("d", 1, block(20))
        cache.put("d", 2, block(20))  # over budget: evicts c0, the oldest
        assert list(cache._entries) == [("b", 1), ("b", 0), ("d", 0), ("d", 1), ("d", 2)]
        assert cache._offsets == {"b": {0, 1}, "d": {0, 1, 2}}  # no empty set left for c
        assert cache.used_bytes == 100

    def test_clear(self):
        cache = LRUBlockCache(1000)
        cache.put("f", 0, block(20))
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0
        assert cache.evict_file("f") == 0

    def test_budget_respected(self):
        cache = LRUBlockCache(250)
        for i in range(50):
            cache.put("f", i, block(25))
        assert cache.used_bytes <= 250
        assert len(cache) <= 10

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUBlockCache(-1)


class FakeFile:
    """A table file whose every block is ``payload``, sealed; counts reads."""

    name = "f"

    def __init__(self, payload):
        self.raw = seal_block(payload)
        self.reads = []

    def read(self, offset, length):
        self.reads.append((offset, length))
        return self.raw[:length]


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
        assert (len(cache), cache.used_bytes, events) == (1, 30, ["demand_read"])
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

    def test_a_held_block_decodes_a_run_once(self):
        stack, _, _ = self.stack(LRUBlockCache(1000))
        block = stack.block(self.HANDLE)
        assert block.runs == {}
        goal = internal_order(KEY)
        assert block.first(goal) == (*goal, b"x" * 10)
        (run,) = block.runs.values()
        assert next(block.seek(goal)) is run[0]  # the kept run, not a second decode
        assert list(block) == run and block.runs == {1: run}  # a walk keeps nothing more

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
        assert (len(cache), cache.used_bytes) == (1, 25)
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
        assert len(cache) == 0

    def test_a_sequential_pass_reads_its_buffer_and_caches_nothing(self):
        cache = LRUBlockCache(1000)
        stack, file, events = self.stack(cache)
        pass_stack = stack.sequential(4096)
        assert list(pass_stack.block(self.HANDLE)) == [(*internal_order(KEY), b"x" * 10)]
        assert file.reads == [(64, 4096)]  # one window, from the first block on
        assert (len(cache), cache.hits, cache.misses, events) == (0, 0, 0, [])
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
        assert len(cache) == 0
