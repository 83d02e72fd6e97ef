"""Unit tests for the LSM-aware persistent cache."""

import random

import pytest

from repro.mash.pcache import (
    _KIND_DATA,
    _KIND_META,
    _KIND_TOMB,
    PCacheConfig,
    PersistentCache,
    _encode_record,
)
from repro.sim.clock import SimClock
from repro.storage.local import LocalDevice
from repro.util.crc import masked_crc32
from repro.util.varint import encode_varint


@pytest.fixture
def device():
    return LocalDevice(SimClock())


@pytest.fixture
def cache(device):
    return PersistentCache.open(device, PCacheConfig(data_budget_bytes=1000, sync_every_n_appends=1))


class TestMetaRegion:
    def test_put_get(self, cache):
        cache.put_meta("t1.sst", "index", b"index-bytes")
        cache.put_meta("t1.sst", "filter", b"filter-bytes")
        assert cache.get_meta("t1.sst", "index") == b"index-bytes"
        assert cache.get_meta("t1.sst", "filter") == b"filter-bytes"

    def test_miss(self, cache):
        assert cache.get_meta("missing.sst", "index") is None
        assert cache.stats.meta_misses == 1

    def test_idempotent_pin(self, cache):
        cache.put_meta("t1.sst", "index", b"payload")
        before = cache.slab_bytes
        cache.put_meta("t1.sst", "index", b"payload")
        assert cache.slab_bytes == before

    def test_unknown_kind_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.put_meta("t1.sst", "data", b"x")

    def test_meta_not_evicted_by_data_pressure(self, cache):
        cache.put_meta("t1.sst", "index", b"m" * 100)
        for i in range(50):
            cache.put_data("big.sst", i * 100, bytes(100))
        assert cache.get_meta("t1.sst", "index") == b"m" * 100

    def test_meta_bytes_accounting(self, cache):
        cache.put_meta("t1.sst", "index", b"x" * 70)
        cache.put_meta("t1.sst", "filter", b"y" * 30)
        assert cache.meta_bytes == 100


class TestDataRegion:
    def test_put_get(self, cache):
        cache.put_data("t.sst", 4096, b"block-payload")
        assert cache.get_data("t.sst", 4096) == b"block-payload"
        assert cache.get_data("t.sst", 0) is None

    def test_lru_eviction_under_budget(self, cache):
        for i in range(20):
            cache.put_data("t.sst", i, bytes(100))  # budget = 1000 -> ~10 fit
        assert cache.data_bytes <= 1000
        assert cache.stats.evictions > 0
        assert cache.get_data("t.sst", 19) is not None  # newest survives
        assert cache.get_data("t.sst", 0) is None  # oldest evicted

    def test_access_refreshes_lru(self, cache):
        for i in range(10):
            cache.put_data("t.sst", i, bytes(100))
        cache.get_data("t.sst", 0)  # refresh the oldest
        cache.put_data("t.sst", 100, bytes(100))  # evicts offset 1, not 0
        assert cache.get_data("t.sst", 0) is not None
        assert cache.contains_data("t.sst", 0)
        assert not cache.contains_data("t.sst", 1)

    def test_oversized_block_not_admitted(self, cache):
        cache.put_data("t.sst", 0, bytes(5000))
        assert cache.get_data("t.sst", 0) is None

    def test_duplicate_admit_is_noop(self, cache):
        cache.put_data("t.sst", 0, b"abc")
        before = cache.slab_bytes
        cache.put_data("t.sst", 0, b"abc")
        assert cache.slab_bytes == before

    def test_contains_does_not_count_hit(self, cache):
        cache.put_data("t.sst", 0, b"abc")
        hits = cache.stats.data_hits
        assert cache.contains_data("t.sst", 0)
        assert cache.stats.data_hits == hits


class TestInvalidation:
    def test_drop_file_removes_all(self, cache):
        cache.put_meta("t.sst", "index", b"m")
        cache.put_data("t.sst", 0, b"d0")
        cache.put_data("t.sst", 10, b"d1")
        cache.put_data("other.sst", 0, b"keep")
        cache.drop_file("t.sst")
        assert cache.get_meta("t.sst", "index") is None
        assert cache.get_data("t.sst", 0) is None
        assert cache.get_data("other.sst", 0) == b"keep"

    def test_drop_missing_file_noop(self, cache):
        cache.drop_file("never-seen.sst")  # must not raise or write

    def test_tombstone_written_only_for_a_file_the_cache_holds(self, cache):
        cache.put_meta("m.sst", "filter", b"meta-only")
        cache.put_data("d.sst", 7, b"data-only")
        cache.put_data("gone.sst", 0, bytes(990))
        cache.put_data("big.sst", 0, bytes(990))  # evicts the blocks of d.sst and gone.sst
        size = cache.slab_bytes
        for absent in ("never-seen.sst", "d.sst", "gone.sst"):  # nothing held: no record
            cache.drop_file(absent)
            assert cache.slab_bytes == size
        cache.drop_file("m.sst")  # held by its metadata alone
        assert cache.slab_bytes > size and cache.get_meta("m.sst", "filter") is None
        size = cache.slab_bytes
        cache.drop_file("big.sst")  # held by a data block alone
        assert cache.slab_bytes > size and not cache.contains_data("big.sst", 0)
        size = cache.slab_bytes
        cache.drop_file("big.sst")  # already forgotten
        assert cache.slab_bytes == size
        assert (len(cache), cache.data_bytes, cache.meta_bytes) == (0, 0, 0)

    def test_drop_file_leaves_the_eviction_order_of_the_rest(self, cache):
        for name, offset in [("a", 0), ("b", 0), ("a", 1), ("c", 0), ("b", 1)]:
            cache.put_data(name, offset, bytes(190))
        assert cache.get_data("b", 0) is not None  # order now: a0 a1 c0 b1 b0
        cache.drop_file("a")
        assert list(cache._data) == [("c", 0), ("b", 1), ("b", 0)]
        assert cache._data_offsets == {"b": {0, 1}, "c": {0}}
        for offset in range(3):
            cache.put_data("d", offset, bytes(190))  # the third evicts c0, the oldest
        assert list(cache._data) == [("b", 1), ("b", 0), ("d", 0), ("d", 1), ("d", 2)]
        assert cache._data_offsets == {"b": {0, 1}, "d": {0, 1, 2}}  # no empty set left for c
        assert cache.stats.evictions == 1 and cache.data_bytes == 950

    def test_drop_survives_restart(self, device, cache):
        cache.put_data("t.sst", 0, b"payload")
        cache.drop_file("t.sst")
        cache.sync()
        cache2 = PersistentCache.open(device, cache.config)
        assert cache2.get_data("t.sst", 0) is None


class TestPersistence:
    def test_contents_survive_restart(self, device):
        config = PCacheConfig(data_budget_bytes=10_000, sync_every_n_appends=1)
        cache = PersistentCache.open(device, config)
        cache.put_meta("t.sst", "index", b"index-payload")
        cache.put_data("t.sst", 64, b"data-payload")
        cache.sync()
        cache2 = PersistentCache.open(device, config)
        assert cache2.get_meta("t.sst", "index") == b"index-payload"
        assert cache2.get_data("t.sst", 64) == b"data-payload"
        assert cache2.stats.recovered_entries == 2

    def test_unsynced_admissions_lost_on_crash(self, device):
        config = PCacheConfig(data_budget_bytes=10_000, sync_every_n_appends=100)
        cache = PersistentCache.open(device, config)
        cache.put_data("t.sst", 0, b"synced")
        cache.sync()
        cache.put_data("t.sst", 1, b"volatile")
        device.crash()
        cache2 = PersistentCache.open(device, config)
        assert cache2.get_data("t.sst", 0) == b"synced"
        assert cache2.get_data("t.sst", 1) is None

    def test_torn_tail_truncated(self, device):
        config = PCacheConfig(data_budget_bytes=10_000, sync_every_n_appends=1)
        cache = PersistentCache.open(device, config)
        cache.put_data("t.sst", 0, b"good-entry")
        cache.sync()
        # Append garbage directly to the slab to simulate a torn write.
        device.append(cache._slab_name, b"\x44garbage-torn-record")
        device.sync(cache._slab_name)
        cache2 = PersistentCache.open(device, config)
        assert cache2.get_data("t.sst", 0) == b"good-entry"

    def test_budget_enforced_after_recovery(self, device):
        big = PCacheConfig(data_budget_bytes=100_000, sync_every_n_appends=1)
        cache = PersistentCache.open(device, big)
        for i in range(20):
            cache.put_data("t.sst", i, bytes(100))
        cache.sync()
        small = PCacheConfig(data_budget_bytes=500, sync_every_n_appends=1)
        cache2 = PersistentCache.open(device, small)
        assert cache2.data_bytes <= 500


class TestSlabCompaction:
    def test_garbage_triggers_compaction(self, device, monkeypatch):
        monkeypatch.setattr("repro.mash.pcache.SLAB_GARBAGE_RATIO", 0.3)
        config = PCacheConfig(data_budget_bytes=100 << 10, sync_every_n_appends=1)
        cache = PersistentCache.open(device, config)
        # Create then drop lots of entries -> garbage accumulates.
        for round_ in range(10):
            name = f"t{round_}.sst"
            for i in range(20):
                cache.put_data(name, i, bytes(1000))
            cache.drop_file(name)
        assert cache.stats.slab_compactions > 0
        # Live contents unaffected.
        cache.put_data("live.sst", 0, b"still-here")
        assert cache.get_data("live.sst", 0) == b"still-here"

    def test_compaction_preserves_entries(self, device):
        config = PCacheConfig(data_budget_bytes=1 << 20, sync_every_n_appends=1)
        cache = PersistentCache.open(device, config)
        for i in range(10):
            cache.put_data("keep.sst", i, f"payload-{i}".encode())
        cache.put_meta("keep.sst", "index", b"meta")
        cache._compact_slab()
        for i in range(10):
            assert cache.get_data("keep.sst", i) == f"payload-{i}".encode()
        assert cache.get_meta("keep.sst", "index") == b"meta"

    def test_slab_shrinks_after_compaction(self, device):
        config = PCacheConfig(data_budget_bytes=1 << 20, sync_every_n_appends=1)
        cache = PersistentCache.open(device, config)
        for i in range(50):
            cache.put_data("dead.sst", i, bytes(500))
        cache.drop_file("dead.sst")
        before = cache.slab_bytes
        cache._compact_slab()
        assert cache.slab_bytes < before


def reference_record(kind, name, block_offset, payload):
    """``_encode_record`` as it stood before the one-join encoding."""
    body = bytearray()
    body += encode_varint(len(name))
    body += name
    body += encode_varint(block_offset)
    body += encode_varint(len(payload))
    payload_pos = 1 + 4 + len(body)
    body += payload
    header = bytes([kind]) + masked_crc32(bytes(body)).to_bytes(4, "little")
    return header + bytes(body), payload_pos


class TestSlabRecordFormat:
    """A slab either encoder wrote is a slab the other's store recovers."""

    def records(self):
        rng = random.Random(5)
        sizes = [0, 1, 127, 128, 300, 16383, 16384, 70000]
        for kind in (_KIND_META, _KIND_DATA, _KIND_TOMB):
            for size in sizes:
                name = ("db/%06d.sst" % rng.randrange(10**6)).encode() * rng.choice([1, 9])
                yield kind, name, rng.choice(sizes) + rng.randrange(3), rng.randbytes(size)

    def test_record_bytes_are_unchanged(self):
        for record in self.records():
            assert _encode_record(*record) == reference_record(*record), record[:3]

    def test_a_slab_of_reference_records_recovers(self, device):
        config = PCacheConfig(data_budget_bytes=1 << 20)
        name = config.prefix + PersistentCache.SLAB
        device.create(name)
        device.append(name, reference_record(_KIND_META, b"t.sst", 1, b"filter-bytes")[0])
        device.append(name, reference_record(_KIND_DATA, b"t.sst", 4096, b"block" * 40)[0])
        device.append(name, reference_record(_KIND_DATA, b"old.sst", 0, b"stale")[0])
        device.append(name, reference_record(_KIND_TOMB, b"old.sst", 0, b"")[0])
        # A sorted-view payload (metadata offset 3) that earlier builds
        # persisted: parsed past, never indexed.
        device.append(name, reference_record(_KIND_META, b"db/view-000042", 3, b"view")[0])
        device.sync(name)
        cache = PersistentCache.open(device, config)
        assert cache.stats.recovered_entries == 2
        assert cache.meta_bytes == len(b"filter-bytes")
        assert cache.get_meta("t.sst", "filter") == b"filter-bytes"
        assert cache.get_data("t.sst", 4096) == b"block" * 40
        assert cache.get_data("old.sst", 0) is None
        assert cache.slab_bytes == device.size(name)  # every record parsed: no torn tail
