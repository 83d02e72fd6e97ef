"""Integration tests for the assembled RocksMash store."""

import random

import pytest

from repro.lsm.wal import XWalConfig
from repro.lsm.write_batch import WriteBatch
from repro.mash.layout import LayoutConfig
from repro.mash.store import RocksMashStore, StoreConfig


@pytest.fixture
def store():
    s = RocksMashStore.create(StoreConfig().small())
    yield s


def fill(store, n, vlen=80, prefix="key"):
    for i in range(n):
        store.put(f"{prefix}{i:06d}".encode(), f"v{i}-".encode() + b"x" * vlen)


class TestCorrectness:
    def test_model_equivalence_random_ops(self, store):
        """The store must agree with a dict model under random operations."""
        rng = random.Random(1234)
        model: dict[bytes, bytes] = {}
        keyspace = [f"key{i:04d}".encode() for i in range(400)]
        for step in range(4000):
            key = rng.choice(keyspace)
            action = rng.random()
            if action < 0.65:
                value = f"v{step}".encode() + b"p" * rng.randint(0, 120)
                store.put(key, value)
                model[key] = value
            elif action < 0.85:
                store.delete(key)
                model.pop(key, None)
            else:
                assert store.get(key) == model.get(key), (step, key)
        for key in keyspace:
            assert store.get(key) == model.get(key)
        # Scan agrees too.
        assert dict(store.scan()) == model

    def test_scan_range_after_tiering(self, store):
        fill(store, 3000)
        got = store.scan(b"key001000", b"key001050")
        assert [k for k, _ in got] == [f"key{i:06d}".encode() for i in range(1000, 1050)]

    def test_scan_with_limit_zero_reads_nothing(self, store):
        """An empty answer costs no I/O and pins no version (it used to start
        the scan — 1 cloud GET and 3 local reads here — before testing the
        limit)."""
        fill(store, 3000)
        assert store.cloud_bytes() > 0
        io = [store.counters.get(name) for name in ("cloud.get_ops", "local.read_ops")]
        now = store.clock.now
        assert store.scan(b"key001000", None, 0) == []
        assert [store.counters.get(name) for name in ("cloud.get_ops", "local.read_ops")] == io
        assert store.clock.now == now
        assert store.db._pinned_versions == []
        assert len(store.scan(b"key001000", None, 1)) == 1
        assert store.counters.get("local.read_ops") > io[1]

    def test_snapshot_across_demotion(self, store):
        fill(store, 1500)
        snap = store.snapshot()
        for i in range(1500):
            store.put(f"key{i:06d}".encode(), b"NEW")
        store.compact_range()
        assert store.get(b"key000700", snapshot=snap) != b"NEW"
        assert store.get(b"key000700") == b"NEW"
        store.release_snapshot(snap)

    def test_write_batch(self, store):
        batch = WriteBatch().put(b"a", b"1").put(b"b", b"2").delete(b"a")
        store.write(batch)
        assert store.get(b"a") is None
        assert store.get(b"b") == b"2"


class TestRestartAndCrash:
    def test_clean_restart(self, store):
        fill(store, 2000)
        store2 = store.reopen()
        for i in range(0, 2000, 111):
            assert store2.get(f"key{i:06d}".encode()) is not None

    def test_crash_preserves_synced_writes(self, store):
        fill(store, 500)
        store.put(b"last-write", b"synced", sync=True)
        store2 = store.reopen(crash=True)
        assert store2.get(b"last-write") == b"synced"
        assert store2.get(b"key000499") is not None

    def test_crash_unsynced_may_lose_only_tail(self, store):
        store.put(b"a", b"1", sync=True)
        store.put(b"b", b"2", sync=False)
        store2 = store.reopen(crash=True)
        assert store2.get(b"a") == b"1"
        # b may be lost (unsynced) but must not be corrupt.
        assert store2.get(b"b") in (None, b"2")

    def test_pcache_contents_survive_restart(self, store):
        fill(store, 3000)
        # Warm the cache with reads.
        for i in range(0, 3000, 11):
            store.get(f"key{i:06d}".encode())
        store.pcache.sync()
        assert store.pcache.data_bytes > 0
        store2 = store.reopen()
        assert store2.pcache.stats.recovered_entries > 0

    def test_repeated_crash_cycles(self, store):
        s = store
        for cycle in range(3):
            fill(s, 300, prefix=f"c{cycle}-")
            s = s.reopen(crash=True)
            for prev in range(cycle + 1):
                assert s.get(f"c{prev}-000000".encode()) is not None


class TestCacheBehaviour:
    def test_metadata_pinned_for_cloud_files(self, store):
        fill(store, 3000)
        assert store.pcache.meta_bytes > 0
        # Metadata footprint is much smaller than the cloud-resident data.
        assert store.pcache.meta_bytes < store.placement.cloud_table_bytes() / 3

    def test_repeated_reads_hit_pcache(self, store):
        fill(store, 3000)
        hot = [f"key{i:06d}".encode() for i in range(100)]
        for _ in range(3):
            for k in hot:
                store.get(k)
        before_gets = store.counters.get("cloud.get_ops")
        for k in hot:
            store.get(k)
        extra = store.counters.get("cloud.get_ops") - before_gets
        # The hot set is cached (DRAM or pcache); few or no new cloud reads.
        assert extra < len(hot) / 2

    def test_prewarm_happens_with_hot_workload(self):
        config = StoreConfig(layout=LayoutConfig(prewarm_heat_threshold=0.5)).small()
        store = RocksMashStore.create(config)
        rng = random.Random(7)
        keys = [f"key{i:05d}".encode() for i in range(500)]
        for i, k in enumerate(keys):
            store.put(k, b"x" * 80)
        # Zipf-ish hot reads interleaved with writes that trigger compactions.
        for step in range(4000):
            if step % 4 == 0:
                store.put(rng.choice(keys), b"y" * 80)
            else:
                store.get(keys[int(rng.paretovariate(1.2)) % 100])
        assert store.heat.prewarmed_blocks > 0

    def test_naive_layout_never_prewarms(self):
        config = StoreConfig(layout=LayoutConfig(aware=False)).small()
        store = RocksMashStore.create(config)
        rng = random.Random(7)
        keys = [f"key{i:05d}".encode() for i in range(500)]
        for k in keys:
            store.put(k, b"x" * 80)
        for step in range(2000):
            if step % 4 == 0:
                store.put(rng.choice(keys), b"y" * 80)
            else:
                store.get(keys[int(rng.paretovariate(1.2)) % 100])
        assert store.heat.prewarmed_blocks == 0


class TestXWalIntegration:
    def test_shard_files_exist(self, store):
        store.put(b"k", b"v")
        xlogs = [n for n in store.env.list_files("db/") if n.endswith(".xlog")]
        assert len(xlogs) == store.config.xwal.num_shards

    def test_more_shards_faster_recovery(self):
        def recovery_time(shards):
            # Large write buffer so the whole workload stays in the WAL:
            # recovery is then dominated by log replay, which is the phase
            # the xWAL parallelizes.
            config = StoreConfig(
                xwal=XWalConfig(num_shards=shards, apply_cost_per_record=20e-6)
            )
            s = RocksMashStore.create(config)
            for i in range(2000):
                s.put(f"key{i:05d}".encode(), b"v" * 100)
            s2 = s.reopen(crash=True)
            assert s2.get(b"key00000") is not None
            return s2.last_recovery_seconds

        t1 = recovery_time(1)
        t8 = recovery_time(8)
        assert t8 < t1

    def test_stats_shape(self, store):
        fill(store, 500)
        metrics = store.metrics()
        for key in [
            "cloud.put_ops",
            "pcache.meta_bytes",
            "pcache.data_hits",
            "demotions",
            "prewarmed_blocks",
            "compaction.compactions",
            "level.0.files",
            "blocks.demand",
            "sim.cloud",
        ]:
            assert key in metrics
        assert all(isinstance(value, int | float) for value in metrics.values())

    def test_cost_report(self, store):
        fill(store, 2000)
        bill = store.cost_report(max(store.clock.now, 1e-9))
        assert bill.total > 0
        assert bill.storage >= 0 and bill.requests >= 0
