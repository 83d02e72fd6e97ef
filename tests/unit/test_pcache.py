"""Unit tests for the LSM-aware persistent cache."""

import random
from operator import itemgetter

import pytest

from repro.errors import IOErrorSim
from repro.mash.pcache import (
    _KIND_DATA,
    _KIND_META,
    _KIND_TOMB,
    PCacheConfig,
    PersistentCache,
    _encode_record,
    _records,
)
from repro.sim.clock import SimClock
from repro.sim.failure import FaultInjector
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
        assert cache.get_data("t.sst", 1) is None

    def test_oversized_block_not_admitted(self, cache):
        cache.put_data("t.sst", 0, bytes(5000))
        assert cache.get_data("t.sst", 0) is None

    def test_duplicate_admit_is_noop(self, cache):
        cache.put_data("t.sst", 0, b"abc")
        before = cache.slab_bytes
        cache.put_data("t.sst", 0, b"abc")
        assert cache.slab_bytes == before

    def test_get_data_counts_each_hit_and_miss(self, cache):
        cache.put_data("t.sst", 0, b"abc")
        stats = cache.stats
        before = (stats.data_hits, stats.data_misses)
        assert cache.get_data("t.sst", 0) == b"abc"
        assert cache.get_data("t.sst", 1) is None
        assert cache.get_data("t.sst", 0) == b"abc"
        assert (stats.data_hits, stats.data_misses) == (before[0] + 2, before[1] + 1)


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
        assert cache.slab_bytes > size and cache.get_data("big.sst", 0) is None
        size = cache.slab_bytes
        cache.drop_file("big.sst")  # already forgotten
        assert cache.slab_bytes == size
        assert (cache._meta, cache._data, cache.data_bytes, cache.meta_bytes) == ({}, {}, 0, 0)

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
        """A torn tail in the active segment ends only that segment: every
        other segment recovers whole, nothing is rewritten, and appends go on
        in a fresh segment."""
        config = PCacheConfig(data_budget_bytes=1000, sync_every_n_appends=1)
        cache = PersistentCache.open(device, config)
        cache.put_meta("t.sst", "index", b"index-payload")
        for i in range(6):
            cache.put_data("t.sst", i, bytes([i]) * 100)
        torn = cache._data_log.active
        assert len(cache._data_log.segments) > 1
        # Append garbage directly to the active segment to simulate a torn write.
        device.append(torn, b"\x44garbage-torn-record")
        device.sync(torn)
        files = {name: device.read(name) for name in device.list_files()}
        cache2 = PersistentCache.open(device, config)
        assert {name: device.read(name) for name in device.list_files()} == files
        assert cache2.get_meta("t.sst", "index") == b"index-payload"
        assert [cache2.get_data("t.sst", i) for i in range(6)] == [bytes([i]) * 100 for i in range(6)]
        cache2.put_data("t.sst", 6, b"after")
        assert cache2._data_log.active not in files
        assert device.read(torn) == files[torn]
        cache2.sync()
        cache3 = PersistentCache.open(device, config)
        assert cache3.get_data("t.sst", 6) == b"after"
        assert cache3.get_data("t.sst", 5) == bytes([5]) * 100

    def test_budget_enforced_after_recovery(self, device):
        big = PCacheConfig(data_budget_bytes=100_000, sync_every_n_appends=1)
        cache = PersistentCache.open(device, big)
        for i in range(20):
            cache.put_data("t.sst", i, bytes(100))
        cache.sync()
        small = PCacheConfig(data_budget_bytes=500, sync_every_n_appends=1)
        cache2 = PersistentCache.open(device, small)
        assert cache2.data_bytes <= 500


def appended_records(device, monkeypatch):
    """Every record appended to ``device`` from now on, decoded, in order."""
    seen = []
    append = device.append

    def recording_append(name, data):
        append(name, data)
        seen.extend(record[:3] for record in _records(bytes(data)))

    monkeypatch.setattr(device, "append", recording_append)
    return seen


def churn(cache, rng, files=100, blocks=40, size=1000, rounds=3000):
    """Uniform random reads over ``files × blocks`` blocks, admitting misses;
    returns the bytes of every record the admissions wrote."""
    admitted = 0
    for _ in range(rounds):
        name, offset = f"t{rng.randrange(files)}.sst", rng.randrange(blocks)
        if cache.get_data(name, offset) is None:
            payload = bytes([offset]) * size
            before = cache.stats.admissions
            cache.put_data(name, offset, payload)
            if cache.stats.admissions > before:
                admitted += len(_encode_record(_KIND_DATA, name.encode(), offset, payload)[0])
    return admitted


class TestSegmentCleaning:
    def test_garbage_triggers_cleaning(self, device, monkeypatch):
        monkeypatch.setattr("repro.mash.pcache.SLAB_GARBAGE_RATIO", 0.3)
        config = PCacheConfig(data_budget_bytes=100 << 10, sync_every_n_appends=1)
        cache = PersistentCache.open(device, config)
        # Create then drop lots of entries -> garbage accumulates.
        for round_ in range(10):
            name = f"t{round_}.sst"
            for i in range(20):
                cache.put_data(name, i, bytes(1000))
            cache.drop_file(name)
        assert cache.stats.segment_cleanings > 0
        assert cache.slab_bytes == sum(device.size(name) for name in device.list_files())
        # Live contents unaffected.
        cache.put_data("live.sst", 0, b"still-here")
        assert cache.get_data("live.sst", 0) == b"still-here"

    def test_cleaning_preserves_entries(self, device):
        config = PCacheConfig(data_budget_bytes=4000, sync_every_n_appends=1)
        cache = PersistentCache.open(device, config)
        cache.put_meta("keep.sst", "index", b"meta")
        for i in range(10):
            cache.put_data("keep.sst", i, f"payload-{i}".encode() * 20)
        for i in range(30):  # a dead file's blocks fill segments behind the live ones
            cache.put_data("dead.sst", i, bytes(150))
            cache.drop_file("dead.sst")
            assert cache.get_data("keep.sst", i % 10) is not None  # keep the live ones hot
        assert cache.stats.segment_cleanings > 0 and cache.stats.evictions == 0
        first = next(iter(cache._data_log.segments))
        assert all(segment != first or key[0] != "keep.sst" for key, (segment, *_) in cache._data.items())
        for i in range(10):
            assert cache.get_data("keep.sst", i) == f"payload-{i}".encode() * 20
        assert cache.get_meta("keep.sst", "index") == b"meta"
        cache.sync()
        reopened = PersistentCache.open(device, config)
        assert reopened.stats.recovered_entries == 11
        assert [reopened.get_data("keep.sst", i) for i in range(10)] == [
            f"payload-{i}".encode() * 20 for i in range(10)
        ]

    def test_footprint_shrinks_after_cleaning(self, device):
        config = PCacheConfig(data_budget_bytes=8000, sync_every_n_appends=1)
        cache = PersistentCache.open(device, config)
        for i in range(30):
            cache.put_data("dead.sst", i, bytes(500))
        cache.drop_file("dead.sst")
        assert cache.stats.segment_cleanings > 0
        assert cache.slab_bytes < 2 * config.data_budget_bytes
        assert cache.slab_bytes == sum(device.size(name) for name in device.list_files())

    def test_churn_writes_each_admitted_record_about_once(self, device):
        config = PCacheConfig(data_budget_bytes=128 << 10)
        cache = PersistentCache.open(device, config)
        admitted = churn(cache, random.Random(3))
        cache.sync()
        assert cache.stats.evictions > 1000 and cache.stats.segment_cleanings > 10
        written = device.counters.get("local.write_bytes")
        assert written <= 1.1 * admitted, written / admitted
        assert cache.slab_bytes <= 2 * config.data_budget_bytes + (64 << 10)

    def test_data_churn_writes_no_metadata_record(self, device, monkeypatch):
        cache = PersistentCache.open(device, PCacheConfig(data_budget_bytes=32 << 10))
        for i in range(20):
            for kind in ("index", "filter", "footer"):
                cache.put_meta(f"pinned{i}.sst", kind, kind.encode() * 50)
        records = appended_records(device, monkeypatch)
        churn(cache, random.Random(4), rounds=1500)
        assert cache.stats.segment_cleanings > 0
        assert {kind for kind, _, _ in records} == {_KIND_DATA}

    def test_a_crash_between_copy_forward_and_delete_recovers_each_entry_once(self, device, monkeypatch):
        config = PCacheConfig(data_budget_bytes=1000, sync_every_n_appends=1)
        cache = PersistentCache.open(device, config)
        cache.put_meta("live.sst", "index", b"index")
        for name in ("dropped.sst", "live.sst"):
            for offset in range(2):
                cache.put_data(name, offset, bytes([offset]) * 100)
        cache.drop_file("dropped.sst")  # its blocks stay in the oldest segment
        monkeypatch.setattr(device, "delete", lambda name: (_ for _ in ()).throw(RuntimeError("power cut")))
        with pytest.raises(RuntimeError, match="power cut"):
            for i in range(100):  # garbage without evictions, until a cleaning
                cache.put_data(f"churn{i}.sst", 0, bytes(100))
                cache.drop_file(f"churn{i}.sst")
        monkeypatch.undo()
        oldest = next(iter(cache._data_log.segments))
        assert {file_name for _, file_name, _ in map(itemgetter(0, 1, 2), _records(device.read(oldest)))} >= {
            "dropped.sst", "live.sst"
        }
        live = {key: cache.get_data(*key) for key in list(cache._data)}
        device.crash()
        reopened = PersistentCache.open(device, config)
        entries = len(reopened._meta) + len(reopened._data)
        assert reopened.stats.recovered_entries == len(live) + 1 == entries
        assert reopened.stats.evictions == 0
        assert reopened.data_bytes == sum(map(len, live.values()))
        assert {key: reopened.get_data(*key) for key in live} == live
        assert reopened.get_meta("live.sst", "index") == b"index"
        assert reopened.get_data("dropped.sst", 0) is None and reopened.get_data("dropped.sst", 1) is None


class TestFullDevice:
    def test_a_full_device_skips_data_admission(self):
        device = LocalDevice(SimClock(), capacity_bytes=600)
        cache = PersistentCache.open(device, PCacheConfig(data_budget_bytes=10_000, sync_every_n_appends=1))
        cache.put_meta("t.sst", "index", bytes(200))
        for i in range(5):
            cache.put_data("t.sst", i, bytes(150))
        assert cache.stats.full_device_skips == 3 and cache.stats.admissions == 3
        assert cache.get_data("t.sst", 4) is None and cache.get_data("t.sst", 1) == bytes(150)
        cache.put_meta("t.sst", "filter", bytes(200))  # a pin is skipped the same way
        assert cache.stats.full_device_skips == 4 and cache.stats.admissions == 3
        assert cache.get_meta("t.sst", "filter") is None and cache.get_meta("t.sst", "index") == bytes(200)

    def test_an_injected_fault_is_not_skipped(self, device):
        cache = PersistentCache.open(device, PCacheConfig(sync_every_n_appends=1))
        device.faults = FaultInjector(error_rate=1.0, op_prefixes=("local.sync",))
        with pytest.raises(IOErrorSim):
            cache.put_data("t.sst", 0, b"block")
        assert cache.stats.full_device_skips == 0


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
        name = config.prefix + "meta.000001"
        device.create(name)
        device.append(name, reference_record(_KIND_META, b"t.sst", 1, b"filter-bytes")[0])
        device.append(name, reference_record(_KIND_DATA, b"t.sst", 4096, b"block" * 40)[0])
        device.append(name, reference_record(_KIND_DATA, b"old.sst", 0, b"stale")[0])
        device.append(name, reference_record(_KIND_TOMB, b"old.sst", 0, b"")[0])
        # A metadata record of an unknown kind (offset 3, which once held a
        # sorted view): parsed past, never indexed.
        device.append(name, reference_record(_KIND_META, b"db/view-000042", 3, b"view")[0])
        device.sync(name)
        cache = PersistentCache.open(device, config)
        assert cache.stats.recovered_entries == 2
        assert cache.meta_bytes == len(b"filter-bytes")
        assert cache.get_meta("t.sst", "filter") == b"filter-bytes"
        assert cache.get_data("t.sst", 4096) == b"block" * 40
        assert cache.get_data("old.sst", 0) is None
        assert cache.slab_bytes == device.size(name)  # every record parsed: no torn tail
