"""Unit tests for the DRAM LRU block cache and the one data-block loader."""

import pytest

from repro.errors import CorruptionError
from repro.lsm.block import Block, BlockBuilder
from repro.lsm.block_cache import LRUBlockCache, load_data_block
from repro.lsm.format import BlockHandle
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

    def test_clear(self):
        cache = LRUBlockCache(1000)
        cache.put("f", 0, block(20))
        cache.clear()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_budget_respected(self):
        cache = LRUBlockCache(250)
        for i in range(50):
            cache.put("f", i, block(25))
        assert cache.used_bytes <= 250
        assert len(cache) <= 10

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUBlockCache(-1)


class TestLoadDataBlock:
    """``load_data_block``: parsed cache above a bytes-returning loader."""

    HANDLE = BlockHandle(64, 30)

    def test_miss_parses_and_caches_then_hit_skips_the_loader(self):
        cache = LRUBlockCache(1000)
        loads, hits = [], []
        cache.on_hit = hits.append

        def loader(name, handle, kind):
            loads.append((name, handle, kind))
            return payload_of(30)

        first = load_data_block(cache, loader, "f", self.HANDLE)
        assert list(first) == [(*internal_order(KEY), b"x" * 10)]
        assert (len(cache), cache.used_bytes, hits) == (1, 30, [])
        assert load_data_block(cache, loader, "f", self.HANDLE) is first
        assert loads == [("f", self.HANDLE, "data")]
        assert hits == ["f"]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_without_a_cache_every_call_loads(self):
        loads = []

        def loader(name, handle, kind):
            loads.append(handle)
            return payload_of(30)

        a = load_data_block(None, loader, "f", self.HANDLE)
        b = load_data_block(None, loader, "f", self.HANDLE)
        assert a is not b and list(a) == list(b)
        assert len(loads) == 2

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
        with pytest.raises(CorruptionError):
            load_data_block(cache, lambda *_: payload, "f", self.HANDLE)
        assert (len(cache), cache.used_bytes) == (1, 25)
        # and again: nothing was cached, so the loader is asked a second time
        with pytest.raises(CorruptionError):
            load_data_block(cache, lambda *_: payload, "f", self.HANDLE)
        assert cache.misses == 2
