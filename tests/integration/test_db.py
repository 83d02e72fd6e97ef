"""Integration tests for the LSM DB: write/read/flush/compact/scan/snapshot."""

import pytest

from repro.errors import ClosedError, InvalidArgumentError
from repro.lsm.db import DB
from repro.lsm.options import NUM_LEVELS, Options
from repro.lsm.write_batch import WriteBatch
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice


def small_options(**kw):
    """Tiny thresholds so flush/compaction happen with small datasets."""
    defaults = dict(
        write_buffer_size=4 << 10,
        block_size=512,
        max_bytes_for_level_base=16 << 10,
        target_file_size_base=4 << 10,
        level0_file_num_compaction_trigger=4,
        block_cache_bytes=0,
    )
    defaults.update(kw)
    return Options(**defaults)


@pytest.fixture
def env():
    return LocalEnv(LocalDevice(SimClock()))


@pytest.fixture
def db(env):
    database = DB.open(env, "db/", small_options())
    yield database
    database.close()


def fill(db, n, *, prefix="key", vlen=100, start=0):
    for i in range(start, start + n):
        db.put(f"{prefix}{i:06d}".encode(), f"value-{i}-".encode() + b"x" * vlen)


class TestBasicOps:
    def test_put_get(self, db):
        db.put(b"hello", b"world")
        assert db.get(b"hello") == b"world"

    def test_get_missing(self, db):
        assert db.get(b"missing") is None

    def test_overwrite(self, db):
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"

    def test_delete(self, db):
        db.put(b"k", b"v")
        db.delete(b"k")
        assert db.get(b"k") is None

    def test_delete_nonexistent_ok(self, db):
        db.delete(b"never-there")
        assert db.get(b"never-there") is None

    def test_empty_value(self, db):
        db.put(b"k", b"")
        assert db.get(b"k") == b""

    def test_binary_keys_values(self, db):
        db.put(b"\x00\xff\x00", b"\x00" * 50)
        assert db.get(b"\x00\xff\x00") == b"\x00" * 50

    def test_write_batch_atomic(self, db):
        batch = WriteBatch()
        batch.put(b"a", b"1").put(b"b", b"2").delete(b"a")
        db.write(batch)
        assert db.get(b"a") is None
        assert db.get(b"b") == b"2"

    def test_empty_batch_noop(self, db):
        seq = db.versions.last_sequence
        db.write(WriteBatch())
        assert db.versions.last_sequence == seq

    def test_closed_db_rejects_ops(self, env):
        db = DB.open(env, "x/", small_options())
        db.close()
        with pytest.raises(ClosedError):
            db.put(b"k", b"v")
        with pytest.raises(ClosedError):
            db.get(b"k")
        db.close()  # idempotent


class TestFlushAndRead:
    def test_data_survives_flush(self, db):
        fill(db, 50)
        db.flush()
        assert len(db.memtable) == 0
        for i in range(50):
            assert db.get(f"key{i:06d}".encode()) is not None

    def test_flush_empty_noop(self, db):
        count = db.flush_count
        db.flush()
        assert db.flush_count == count

    def test_automatic_flush_on_buffer_full(self, db):
        fill(db, 200)  # 200 * ~115B > 4KB several times over
        assert db.flush_count > 0
        assert db.get(b"key000000") is not None

    def test_read_across_memtable_and_tables(self, db):
        db.put(b"old", b"from-table")
        db.flush()
        db.put(b"new", b"from-memtable")
        assert db.get(b"old") == b"from-table"
        assert db.get(b"new") == b"from-memtable"

    def test_newest_version_wins_across_levels(self, db):
        db.put(b"k", b"v1")
        db.flush()
        db.put(b"k", b"v2")
        db.flush()
        db.put(b"k", b"v3")
        assert db.get(b"k") == b"v3"

    def test_tombstone_masks_older_table_value(self, db):
        db.put(b"k", b"v")
        db.flush()
        db.delete(b"k")
        db.flush()
        assert db.get(b"k") is None


class TestCompaction:
    def test_compaction_triggered_and_correct(self, env):
        db = DB.open(env, "db/", small_options())
        fill(db, 2000, vlen=50)
        assert db.compaction_stats.compactions + db.compaction_stats.trivial_moves > 0
        # All data still readable after compactions.
        for i in range(0, 2000, 97):
            assert db.get(f"key{i:06d}".encode()) is not None, i
        db.close()

    def test_compact_range_drops_tombstones(self, db):
        fill(db, 100, vlen=10)
        for i in range(100):
            db.delete(f"key{i:06d}".encode())
        db.compact_range()
        for i in range(100):
            assert db.get(f"key{i:06d}".encode()) is None
        # After full compaction of deleted data, tables should be tiny/empty.
        assert db.approximate_size() < 2000

    def test_levels_populated(self, env):
        db = DB.open(env, "db/", small_options())
        fill(db, 3000, vlen=50)
        db.flush()
        summary = db.level_summary()
        assert any(level >= 1 for level, _, _ in summary)
        db.close()

    def test_overwrites_reclaimed_by_compaction(self, db):
        for round_ in range(5):
            for i in range(200):
                db.put(f"key{i:03d}".encode(), f"round{round_}".encode() + b"x" * 50)
        db.compact_range()
        for i in range(200):
            assert db.get(f"key{i:03d}".encode()) == b"round4" + b"x" * 50


class TestScan:
    def test_full_scan_sorted(self, db):
        fill(db, 300, vlen=20)
        db.flush()
        fill(db, 100, prefix="mem", vlen=20)
        keys = [k for k, _ in db.scan()]
        assert keys == sorted(keys)
        assert len(keys) == 400

    def test_range_scan(self, db):
        fill(db, 100, vlen=10)
        got = list(db.scan(b"key000010", b"key000020"))
        assert [k for k, _ in got] == [f"key{i:06d}".encode() for i in range(10, 20)]

    def test_scan_sees_newest_value(self, db):
        db.put(b"k", b"old")
        db.flush()
        db.put(b"k", b"new")
        assert dict(db.scan()) == {b"k": b"new"}

    def test_scan_skips_tombstones(self, db):
        fill(db, 20, vlen=10)
        db.flush()
        db.delete(b"key000005")
        keys = [k for k, _ in db.scan()]
        assert b"key000005" not in keys
        assert len(keys) == 19

    def test_scan_empty_db(self, db):
        assert list(db.scan()) == []

    def test_scan_open_ended_begin(self, db):
        fill(db, 10, vlen=10)
        got = list(db.scan(None, b"key000003"))
        assert len(got) == 3


class TestSnapshots:
    def test_snapshot_isolation(self, db):
        db.put(b"k", b"v1")
        snap = db.snapshot()
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"
        assert db.get(b"k", snapshot=snap) == b"v1"
        db.release_snapshot(snap)

    def test_snapshot_sees_through_flush_and_compaction(self, db):
        fill(db, 100, vlen=10)
        snap = db.snapshot()
        for i in range(100):
            db.put(f"key{i:06d}".encode(), b"overwritten")
        db.compact_range()
        assert db.get(b"key000050", snapshot=snap) != b"overwritten"
        db.release_snapshot(snap)

    def test_snapshot_of_deleted_key(self, db):
        db.put(b"k", b"v")
        snap = db.snapshot()
        db.delete(b"k")
        db.compact_range()
        assert db.get(b"k") is None
        assert db.get(b"k", snapshot=snap) == b"v"
        db.release_snapshot(snap)

    def test_scan_at_snapshot(self, db):
        db.put(b"a", b"1")
        snap = db.snapshot()
        db.put(b"b", b"2")
        assert dict(db.scan(snapshot=snap)) == {b"a": b"1"}

    def test_double_release_is_refused_and_keeps_the_other_pin(self, db):
        # Two snapshots taken with no write between them share a sequence
        # number; releasing one twice used to unpin the other, and the
        # compaction below then dropped the versions it still reads.
        for i in range(200):
            db.put(b"key%06d" % i, b"old" * 20, sync=False)
        db.flush()
        a = db.snapshot()
        b = db.snapshot()
        db.release_snapshot(a)
        with pytest.raises(InvalidArgumentError):
            db.release_snapshot(a)
        for i in range(200):
            db.put(b"key%06d" % i, b"new" * 20, sync=False)
        db.compact_range()
        assert db.get(b"key000007", snapshot=b) == b"old" * 20
        db.release_snapshot(b)


class TestOpenSemantics:
    def test_error_if_exists(self, env):
        DB.open(env, "db/", small_options()).close()
        with pytest.raises(InvalidArgumentError):
            DB.open(env, "db/", small_options(), error_if_exists=True)

    def test_create_if_missing_false(self, env):
        from repro.errors import RecoveryError

        with pytest.raises(RecoveryError):
            DB.open(env, "ghost/", small_options(), create_if_missing=False)

    def test_two_dbs_same_env(self, env):
        db1 = DB.open(env, "one/", small_options())
        db2 = DB.open(env, "two/", small_options())
        db1.put(b"k", b"from-db1")
        db2.put(b"k", b"from-db2")
        assert db1.get(b"k") == b"from-db1"
        assert db2.get(b"k") == b"from-db2"
        db1.close()
        db2.close()


class TestMetrics:
    def test_engine_numbers(self, db):
        db.put(b"k", b"v" * 100)
        metrics = db.metrics()
        assert metrics["memtable.entries"] == 1 and metrics["memtable.bytes"] > 100
        for i in range(300):
            db.put(f"key{i:05d}".encode(), f"v{i}".encode())
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
