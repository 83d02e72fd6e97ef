"""Integration tests for the offline consistency checker."""

import pytest

from repro.lsm.check import check_db
from repro.lsm.db import DB
from repro.lsm.format import table_file_name
from repro.lsm.options import Options
from repro.mash.store import RocksMashStore, StoreConfig
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
def env():
    return LocalEnv(LocalDevice(SimClock()))


def build_db(env, n=2000):
    db = DB.open(env, "db/", small_options())
    for i in range(n):
        db.put(f"k{i:05d}".encode(), b"x" * 60)
    db.flush()
    db.close()


class TestCleanDB:
    def test_healthy_db_passes(self, env):
        build_db(env)
        report = check_db(env, "db/", small_options())
        assert report.ok, report.errors
        assert report.tables_checked > 0
        assert report.entries_checked >= 2000
        assert "OK" in report.summary()

    def test_db_after_crash_passes_with_warnings_at_most(self, env):
        db = DB.open(env, "db/", small_options())
        for i in range(500):
            db.put(f"k{i:04d}".encode(), b"v" * 40)
        db.put(b"unsynced", b"v", sync=False)
        env.device.crash()
        report = check_db(env, "db/", small_options())
        assert report.ok, report.errors

    def test_rocksmash_store_checks_clean(self):
        store = RocksMashStore.create(StoreConfig().small())
        for i in range(2000):
            store.put(f"k{i:05d}".encode(), b"v" * 60)
        store.close()
        report = check_db(store.env, "db/", store.config.options)
        assert report.ok, report.errors
        assert report.wal_files_checked >= 1  # xlog shards scanned


class TestCorruptionDetected:
    def _corrupt_live_table(self, env, flip_at=None):
        db = DB.open(env, "db/", small_options())
        for i in range(500):
            db.put(f"k{i:04d}".encode(), b"v" * 40)
        db.flush()
        meta = next(m for _, m in db.versions.current.all_files())
        name = table_file_name("db/", meta.number)
        db.close()
        data = bytearray(env.read_file(name))
        pos = flip_at if flip_at is not None else len(data) // 3
        data[pos] ^= 0xFF
        env.delete_file(name)
        env.write_file(name, bytes(data))
        return name

    def test_flipped_block_byte_detected(self, env):
        name = self._corrupt_live_table(env)
        report = check_db(env, "db/", small_options())
        assert not report.ok
        assert any(name in e for e in report.errors)

    def test_missing_live_table_detected(self, env):
        db = DB.open(env, "db/", small_options())
        for i in range(500):
            db.put(f"k{i:04d}".encode(), b"v" * 40)
        db.flush()
        meta = next(m for _, m in db.versions.current.all_files())
        name = table_file_name("db/", meta.number)
        db.close()
        env.delete_file(name)
        report = check_db(env, "db/", small_options())
        assert not report.ok
        assert any("missing" in e for e in report.errors)

    def test_size_mismatch_detected(self, env):
        db = DB.open(env, "db/", small_options())
        for i in range(500):
            db.put(f"k{i:04d}".encode(), b"v" * 40)
        db.flush()
        meta = next(m for _, m in db.versions.current.all_files())
        name = table_file_name("db/", meta.number)
        db.close()
        # Rebuild a *valid* but different (smaller) table at the same name.
        data = env.read_file(name)
        from repro.lsm.table_builder import TableBuilder
        from repro.util.encoding import seek_goal

        env.delete_file(name)
        builder = TableBuilder(small_options(), env.new_writable_file(name))
        builder.fill([(*seek_goal(b"zzz", 1), b"v")])
        builder.finish()
        report = check_db(env, "db/", small_options())
        assert not report.ok
        # A table that reads back whole but is not the one the MANIFEST names.
        assert any("smallest key mismatch" in e for e in report.errors)
        assert any("largest key mismatch" in e for e in report.errors)

    def test_garbled_manifest_detected(self, env):
        build_db(env, 100)
        manifests = [n for n in env.list_files("db/") if "MANIFEST" in n]
        data = bytearray(env.read_file(manifests[0]))
        data[5] ^= 0xFF
        env.delete_file(manifests[0])
        env.write_file(manifests[0], bytes(data))
        report = check_db(env, "db/", small_options())
        assert not report.ok

    def test_orphan_reported_as_warning(self, env):
        build_db(env, 100)
        env.write_file(table_file_name("db/", 9999), b"junk")
        report = check_db(env, "db/", small_options())
        # Orphan junk is a warning, not an error (recovery would purge it)...
        assert table_file_name("db/", 9999) in report.orphans
        # ...and does not fail the check.
        assert report.ok, report.errors
