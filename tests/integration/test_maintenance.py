"""Integration tests for DB maintenance: orphan purge, manifest rewrite."""

import pytest

from repro.lsm.db import DB, DBListeners
from repro.lsm.format import manifest_file_name, table_file_name
from repro.lsm.options import Options
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice


def small_options(**kw):
    defaults = dict(
        write_buffer_size=4 << 10,
        block_size=512,
        max_bytes_for_level_base=16 << 10,
        target_file_size_base=4 << 10,
        block_cache_bytes=0,
    )
    defaults.update(kw)
    return Options(**defaults)


@pytest.fixture
def env():
    return LocalEnv(LocalDevice(SimClock()))


class TestOrphanPurge:
    def test_orphan_table_removed_on_recovery(self, env):
        db = DB.open(env, "db/", small_options())
        db.put(b"k", b"v")
        db.flush()
        db.close()
        # Plant an orphan: a table file never committed to the manifest.
        orphan = table_file_name("db/", 9999)
        env.write_file(orphan, b"junk table bytes")
        db2 = DB.open(env, "db/", small_options())
        assert not env.file_exists(orphan)
        assert db2.orphans_purged >= 1
        assert db2.get(b"k") == b"v"
        db2.close()

    def test_orphan_manifest_removed_on_recovery(self, env):
        db = DB.open(env, "db/", small_options())
        db.put(b"k", b"v")
        db.close()
        orphan = manifest_file_name("db/", 9998)
        env.write_file(orphan, b"stale manifest")
        db2 = DB.open(env, "db/", small_options())
        assert not env.file_exists(orphan)
        db2.close()

    def test_purge_notifies_cache_listeners(self, env):
        db = DB.open(env, "db/", small_options())
        db.put(b"k", b"v")
        db.flush()
        db.close()
        orphan = table_file_name("db/", 7777)
        env.write_file(orphan, b"junk")
        deleted = []
        listeners = DBListeners(on_table_delete=[deleted.append])
        db2 = DB.open(env, "db/", small_options(), listeners=listeners)
        assert db2.listeners is listeners
        assert orphan in deleted
        db2.close()

    def test_live_files_never_purged(self, env):
        db = DB.open(env, "db/", small_options())
        for i in range(2000):
            db.put(f"k{i:05d}".encode(), b"x" * 50)
        db.flush()
        live_before = {
            table_file_name("db/", m.number)
            for _, m in db.versions.current.all_files()
        }
        db.close()
        db2 = DB.open(env, "db/", small_options())
        for name in live_before:
            assert env.file_exists(name), name
        for i in range(0, 2000, 111):
            assert db2.get(f"k{i:05d}".encode()) is not None
        db2.close()


class TestManifestRewrite:
    def test_manifest_stays_bounded(self, env):
        options = small_options(max_manifest_file_size=2 << 10)
        db = DB.open(env, "db/", options)
        for i in range(4000):
            db.put(f"k{i % 500:04d}".encode(), b"x" * 60)
        # The manifest would be tens of KB without rewriting.
        assert db.versions.manifest_bytes() <= 4 << 10
        db.close()

    def test_recovery_after_rewrite(self, env):
        options = small_options(max_manifest_file_size=2 << 10)
        db = DB.open(env, "db/", options)
        for i in range(3000):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        number_after = db.versions.manifest_number
        assert number_after > 1  # at least one rewrite happened
        db.close()
        db2 = DB.open(env, "db/", options)
        for i in range(0, 3000, 131):
            assert db2.get(f"k{i:05d}".encode()) is not None
        db2.close()

    def test_only_one_manifest_on_disk(self, env):
        options = small_options(max_manifest_file_size=2 << 10)
        db = DB.open(env, "db/", options)
        for i in range(3000):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        manifests = [n for n in env.list_files("db/") if "MANIFEST" in n]
        assert len(manifests) == 1
        db.close()

    def test_rewrite_disabled_with_zero(self, env):
        options = small_options(max_manifest_file_size=0)
        db = DB.open(env, "db/", options)
        for i in range(3000):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        assert db.versions.manifest_number == 1  # never rewritten
        db.close()

    def test_crash_after_rewrite_recovers(self, env):
        device = env.device
        options = small_options(max_manifest_file_size=2 << 10)
        db = DB.open(env, "db/", options)
        for i in range(3000):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        assert db.versions.manifest_number > 1
        device.crash()
        db2 = DB.open(env, "db/", options)
        for i in range(0, 3000, 131):
            assert db2.get(f"k{i:05d}".encode()) is not None
        db2.close()

    def test_explicit_rewrite_api(self, env):
        db = DB.open(env, "db/", small_options())
        db.put(b"k", b"v")
        db.flush()
        old = db.versions.manifest_number
        purged = db.versions.rewrite_manifest()
        assert purged == old
        assert db.versions.manifest_number > old
        assert db.get(b"k") == b"v"
        db.close()
        db2 = DB.open(env, "db/", small_options())
        assert db2.get(b"k") == b"v"
        db2.close()
