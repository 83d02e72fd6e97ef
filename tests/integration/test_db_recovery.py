"""Integration tests for DB recovery: reopen, crash, WAL replay."""

import dataclasses

import pytest

from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.wal import XWalConfig
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice


def small_options():
    return Options(
        write_buffer_size=4 << 10,
        block_size=512,
        max_bytes_for_level_base=16 << 10,
        target_file_size_base=4 << 10,
        block_cache_bytes=0,
    )


@pytest.fixture
def device():
    return LocalDevice(SimClock())


@pytest.fixture
def env(device):
    return LocalEnv(device)


class TestCleanReopen:
    def test_reopen_sees_all_data(self, env):
        db = DB.open(env, "db/", small_options())
        for i in range(500):
            db.put(f"k{i:05d}".encode(), f"v{i}".encode())
        db.close()
        db2 = DB.open(env, "db/", small_options())
        for i in range(0, 500, 23):
            assert db2.get(f"k{i:05d}".encode()) == f"v{i}".encode()
        db2.close()

    def test_reopen_preserves_sequence(self, env):
        db = DB.open(env, "db/", small_options())
        db.put(b"a", b"1")
        db.put(b"b", b"2")
        seq = db.versions.last_sequence
        db.close()
        db2 = DB.open(env, "db/", small_options())
        assert db2.versions.last_sequence == seq
        db2.put(b"c", b"3")
        assert db2.versions.last_sequence == seq + 1
        db2.close()

    def test_reopen_preserves_deletes(self, env):
        db = DB.open(env, "db/", small_options())
        db.put(b"k", b"v")
        db.delete(b"k")
        db.close()
        db2 = DB.open(env, "db/", small_options())
        assert db2.get(b"k") is None
        db2.close()

    def test_multiple_reopen_cycles(self, env):
        for cycle in range(4):
            db = DB.open(env, "db/", small_options())
            for i in range(50):
                db.put(f"cycle{cycle}-{i}".encode(), str(cycle).encode())
            # everything from earlier cycles still present
            for prev in range(cycle):
                assert db.get(f"cycle{prev}-0".encode()) == str(prev).encode()
            db.close()


class TestCrashRecovery:
    def test_synced_writes_survive_crash(self, device, env):
        db = DB.open(env, "db/", small_options())
        for i in range(100):
            db.put(f"k{i:04d}".encode(), f"v{i}".encode(), sync=True)
        device.crash()  # no clean close
        db2 = DB.open(env, "db/", small_options())
        for i in range(100):
            assert db2.get(f"k{i:04d}".encode()) == f"v{i}".encode()
        db2.close()

    def test_unsynced_writes_may_be_lost_but_prefix_consistent(self, device, env):
        db = DB.open(env, "db/", small_options())
        db.put(b"synced", b"v", sync=True)
        db.put(b"unsynced", b"v", sync=False)
        device.crash()
        db2 = DB.open(env, "db/", small_options())
        assert db2.get(b"synced") == b"v"
        assert db2.get(b"unsynced") is None
        db2.close()

    def test_crash_after_flush_and_more_writes(self, device, env):
        db = DB.open(env, "db/", small_options())
        for i in range(300):
            db.put(f"a{i:04d}".encode(), b"x" * 50)
        db.flush()
        for i in range(50):
            db.put(f"b{i:04d}".encode(), b"y" * 20, sync=True)
        device.crash()
        db2 = DB.open(env, "db/", small_options())
        assert db2.get(b"a0000") == b"x" * 50
        assert db2.get(b"b0049") == b"y" * 20
        db2.close()

    def test_crash_during_heavy_compaction_history(self, device, env):
        db = DB.open(env, "db/", small_options())
        for i in range(2000):
            db.put(f"k{i % 300:04d}".encode(), f"gen{i}".encode() + b"z" * 30)
        device.crash()
        db2 = DB.open(env, "db/", small_options())
        # Every key holds its newest synced value.
        for i in range(300):
            value = db2.get(f"k{i:04d}".encode())
            assert value is not None and value.startswith(b"gen")
        db2.close()

    def test_recovered_db_continues_normally(self, device, env):
        db = DB.open(env, "db/", small_options())
        db.put(b"before", b"1")
        device.crash()
        db2 = DB.open(env, "db/", small_options())
        db2.put(b"after", b"2")
        db2.flush()
        db2.compact_range()
        assert db2.get(b"before") == b"1"
        assert db2.get(b"after") == b"2"
        db2.close()


class TestShardCountChange:
    def test_recovery_replays_and_deletes_every_shard_on_disk(self, device, env):
        """The files on disk decide what recovery replays, not the shard
        count the store reopens with: a log written to four shards and
        reopened with one loses no synced put and leaves no shard behind."""
        options = dataclasses.replace(small_options(), write_buffer_size=1 << 20)
        db = DB.open(env, "db/", options, xwal_config=XWalConfig(num_shards=4))
        for i in range(100):
            db.put(f"k{i:04d}".encode(), f"v{i}".encode(), sync=True)
        live = db._wal_number
        assert {n for n in env.list_files("db/") if n.endswith(".xlog")} == {
            f"db/{live:06d}-{shard:02d}.xlog" for shard in range(4)
        }
        device.crash()
        db2 = DB.open(env, "db/", options)
        assert db2.xwal_config.num_shards == 1
        for i in range(100):
            assert db2.get(f"k{i:04d}".encode()) == f"v{i}".encode()
        assert [n for n in env.list_files("db/") if n.endswith(".xlog")] == [
            f"db/{db2._wal_number:06d}-00.xlog"
        ]
        db2.close()


class TestWalHygiene:
    def test_old_wal_files_deleted_after_flush(self, env):
        db = DB.open(env, "db/", small_options())
        for i in range(1000):
            db.put(f"k{i:05d}".encode(), b"x" * 50)
        db.flush()
        logs = [n for n in env.list_files("db/") if n.endswith(".xlog")]
        assert len(logs) == 1  # only the live generation remains
        db.close()

    def test_obsolete_tables_deleted(self, env):
        db = DB.open(env, "db/", small_options())
        for i in range(3000):
            db.put(f"k{i % 200:04d}".encode(), b"x" * 40)
        db.compact_range()
        on_disk = {n for n in env.list_files("db/") if n.endswith(".sst")}
        live = {
            f"db/{meta.number:06d}.sst"
            for _, meta in db.versions.current.all_files()
        }
        assert on_disk == live
        db.close()
