"""Integration tests for reverse scans and the engine's ``metrics()``."""

import random

import pytest

from repro.bench.harness import HarnessKnobs, make_store
from repro.lsm.block_cache import BlockStack
from repro.lsm.db import DB
from repro.lsm.format import table_file_name
from repro.lsm.options import NUM_LEVELS, Options
from repro.mash.store import RocksMashStore, StoreConfig
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import MAX_SEQUENCE, TYPE_VALUE, internal_order, make_internal_key
from repro.workloads import dbbench
from repro.workloads.generator import make_key


def small_options():
    return Options(
        write_buffer_size=4 << 10,
        block_size=512,
        max_bytes_for_level_base=16 << 10,
        target_file_size_base=4 << 10,
        block_cache_bytes=0,
    )


@pytest.fixture
def db():
    database = DB.open(LocalEnv(LocalDevice(SimClock())), "db/", small_options())
    yield database
    database.close()


def fill(db, n=400):
    for i in range(n):
        db.put(f"key{i:05d}".encode(), f"v{i}".encode())


class TestReverseScan:
    def test_mirror_of_forward(self, db):
        fill(db)
        db.flush()
        fill(db, 50)  # overwrite a prefix, keep some in the memtable
        forward = list(db.scan())
        backward = list(db.scan(reverse=True))
        assert backward == forward[::-1]

    def test_range_bounds(self, db):
        fill(db, 100)
        got = list(db.scan(b"key00010", b"key00020", reverse=True))
        assert [k for k, _ in got] == [
            f"key{i:05d}".encode() for i in range(19, 9, -1)
        ]

    def test_tombstones_hidden(self, db):
        fill(db, 50)
        db.flush()
        db.delete(b"key00025")
        keys = [k for k, _ in db.scan(reverse=True)]
        assert b"key00025" not in keys
        assert len(keys) == 49

    def test_newest_value_wins(self, db):
        db.put(b"k", b"old")
        db.flush()
        db.put(b"k", b"new")
        assert list(db.scan(reverse=True)) == [(b"k", b"new")]

    def test_snapshot_respected(self, db):
        db.put(b"a", b"1")
        snap = db.snapshot()
        db.put(b"a", b"2")
        db.put(b"b", b"3")
        assert list(db.scan(snapshot=snap, reverse=True)) == [(b"a", b"1")]
        db.release_snapshot(snap)

    def test_across_compacted_levels(self, db):
        for i in range(3000):
            db.put(f"key{i % 600:05d}".encode(), f"gen{i}".encode())
        db.compact_range()
        forward = list(db.scan())
        assert list(db.scan(reverse=True)) == forward[::-1]

    def test_empty_db(self, db):
        assert list(db.scan(reverse=True)) == []

    def test_random_ops_mirror_property(self, db):
        rng = random.Random(3)
        for step in range(1500):
            k = f"key{rng.randrange(300):04d}".encode()
            if rng.random() < 0.7:
                db.put(k, f"v{step}".encode())
            else:
                db.delete(k)
        assert list(db.scan(reverse=True)) == list(db.scan())[::-1]

    def test_store_facade_reverse(self):
        store = RocksMashStore.create(StoreConfig().small())
        for i in range(1000):
            store.put(f"key{i:05d}".encode(), b"v")
        got = store.scan(limit=5, reverse=True)
        assert [k for k, _ in got] == [
            f"key{i:05d}".encode() for i in range(999, 994, -1)
        ]


class TestReverseSeekBlockReads:
    """A bounded reverse scan must not fetch blocks above its bound.

    Before the reverse table iterator (``TableReader.entries(bound,
    reverse=True)``) seeked to its bound, a reverse scan walked every
    table's whole tail regardless of ``end`` — this pins the fix with an
    exact per-block assertion.
    """

    def _open_counting_db(self):
        fetches = []

        class CountingStack(BlockStack):
            def fetch(self, handle):
                fetches.append((self.name, handle.offset))
                return super().fetch(handle)

        database = DB.open(
            LocalEnv(LocalDevice(SimClock())), "db/", small_options(),
            stack_factory=CountingStack,
        )
        return database, fetches

    def test_tight_end_reverse_scan_fetches_no_out_of_range_blocks(self):
        db, fetches = self._open_counting_db()
        try:
            for i in range(2000):
                db.put(f"key{i:05d}".encode(), f"value{i:05d}".encode() * 4)
            db.compact_range()
            refs = {}
            for _level, meta in db.versions.current.all_files():
                reader = db.table_cache.get_reader(meta.number)
                refs[table_file_name("db/", meta.number)] = reader._seek_index()

            fetches.clear()
            full = list(db.scan(reverse=True))
            assert len(full) == 2000
            full_fetches = len(fetches)

            fetches.clear()
            end = b"key00012"
            got = list(db.scan(None, end, reverse=True))
            assert [k for k, _ in got] == [
                f"key{i:05d}".encode() for i in range(11, -1, -1)
            ]
            bound = make_internal_key(end, MAX_SEQUENCE, TYPE_VALUE)
            for name, offset in fetches:
                last_keys, handles = refs[name]
                j = next(i for i, h in enumerate(handles) if h.offset == offset)
                # Block j holds keys strictly above block j-1's last key, so
                # fetching it is justified only if that last key is below the
                # bound; otherwise the whole block is out of range.
                if j > 0:
                    assert last_keys[j - 1] < internal_order(bound), (
                        f"{name} fetched out-of-range block at {offset}"
                    )
            # And the bounded scan reads a small fraction of the tail walk.
            assert len(fetches) * 10 <= full_fetches
        finally:
            db.close()

    def test_tight_bound_memtable_reverse_scan(self):
        db, _fetches = self._open_counting_db()
        try:
            for i in range(100):
                db.put(f"key{i:05d}".encode(), b"v")
            got = list(db.scan(b"key00003", b"key00007", reverse=True))
            assert [k for k, _ in got] == [
                f"key{i:05d}".encode() for i in range(6, 2, -1)
            ]
        finally:
            db.close()


def cold_cloud_store(depth, records=600):
    """RocksMash with everything below L0 cloud-resident and caches cold."""
    store = make_store(
        "rocksmash",
        HarnessKnobs(
            scan_prefetch_depth=depth,
            cloud_level=1,
            block_cache_bytes=0,
            pcache_budget_bytes=4 << 10,
        ),
    )
    dbbench.fill_database(store, records)
    store.db.table_cache.clear()
    return store


class TestReverseScanPrefetchPipeline:
    """``scan(reverse=True)`` consults ``scan_pipeline_factory`` like a forward scan.

    The forward path gained the prefetch pipeline in an earlier PR but the
    reverse path silently ignored the factory; these pin the wiring and
    the cold-cloud latency win it buys.
    """

    def test_reverse_results_identical_and_faster_with_pipeline(self):
        base = cold_cloud_store(depth=0)
        piped = cold_cloud_store(depth=2)

        t0 = base.clock.now
        expect = base.scan(reverse=True)
        base_elapsed = base.clock.now - t0

        t0 = piped.clock.now
        got = piped.scan(reverse=True)
        piped_elapsed = piped.clock.now - t0

        assert got == expect
        assert base.tracer.event_count("seek_fanout") == 0
        assert piped.tracer.event_count("seek_fanout") == 1
        assert piped_elapsed < base_elapsed

    def test_bounded_reverse_scan_waste_stays_bounded(self):
        store = cold_cloud_store(depth=4)
        got = store.scan(None, make_key(40), reverse=True)
        assert len(got) == 40
        waste = store.tracer.event_count("prefetch_waste")
        issued = store.tracer.event_count("prefetch_issue")
        hits = store.tracer.event_count("prefetch_hit")
        assert waste <= 4
        assert hits + waste == issued


class TestMetrics:
    def test_engine_numbers(self, db):
        db.put(b"k", b"v" * 100)
        metrics = db.metrics()
        assert metrics["memtable.entries"] == 1 and metrics["memtable.bytes"] > 100
        fill(db, 300)
        db.flush()
        snap = db.snapshot()
        metrics = db.metrics()
        db.release_snapshot(snap)
        assert metrics["snapshots"] == 1 and db.metrics()["snapshots"] == 0
        assert metrics["memtable.entries"] == 0 and metrics["flushes"] >= 1
        assert metrics["last_sequence"] == 301
        assert metrics["manifest.bytes"] > 0
        levels = [
            (level, metrics[f"level.{level}.files"], metrics[f"level.{level}.bytes"])
            for level in range(NUM_LEVELS)
        ]
        assert [row for row in levels if row[1]] == db.level_summary()
        assert metrics["level.0.files"] >= 1
        assert metrics["sst.bytes"] == sum(size for _, _, size in levels) > 0
        # No DRAM cache, no blob log: their names are zeros or absent.
        assert metrics["block_cache.hits"] == metrics["block_cache.misses"] == 0
        assert not [name for name in metrics if name.startswith("blob.")]
