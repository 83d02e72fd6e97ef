"""Integration tests: live iterators survive concurrent compactions."""

import pytest

from repro.lsm.db import DB
from repro.lsm.format import table_file_name
from repro.lsm.options import Options
from repro.lsm.version import Version
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
def db():
    database = DB.open(LocalEnv(LocalDevice(SimClock())), "db/", small_options())
    yield database
    database.close()


class TestIteratorPinning:
    def test_scan_survives_compaction_churn(self, db):
        for i in range(2000):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        db.flush()
        it = db.scan()
        first = [next(it) for _ in range(5)]
        # Heavy overwrites trigger flushes + compactions mid-scan.
        for i in range(3000):
            db.put(f"k{i % 500:05d}".encode(), b"y" * 60)
        rest = list(it)
        keys = [k for k, _ in first + rest]
        assert keys == sorted(keys)
        assert len(keys) == 2000  # snapshot-consistent view

    def test_deferred_files_deleted_after_iterator_closes(self, db):
        for i in range(2000):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        db.flush()
        it = db.scan()
        next(it)
        for i in range(3000):
            db.put(f"k{i % 500:05d}".encode(), b"y" * 60)
        assert db._deferred_deletes, "compactions should have deferred deletions"
        it.close()
        assert not db._deferred_deletes
        # On-storage files exactly match the live version again.
        on_disk = {n for n in db.env.list_files("db/") if n.endswith(".sst")}
        live = {
            table_file_name("db/", m.number)
            for _, m in db.versions.current.all_files()
        }
        assert on_disk == live

    def test_scan_with_nothing_deferred_builds_no_live_file_set(self, db, monkeypatch):
        """Closing a scan purges deferred deletes; with none pending it must
        not rebuild the live-file set of every pinned version to find that
        out (the deferring case is the test above)."""
        for i in range(1000):
            db.put(f"k{i:04d}".encode(), b"x" * 40)
        db.flush()
        assert not db._deferred_deletes
        calls = []
        plain = Version.live_file_numbers
        monkeypatch.setattr(
            Version, "live_file_numbers", lambda version: calls.append(1) or plain(version)
        )
        assert len(list(db.scan())) == 1000
        assert len(list(db.scan(b"k0100", b"k0200"))) == 100
        outer = db.scan()
        next(outer)
        assert len(list(db.scan(b"k0500"))) == 500  # closes while ``outer`` is pinned
        outer.close()
        assert calls == []
        assert not db._pinned_versions

    def test_nested_iterators(self, db):
        for i in range(1000):
            db.put(f"k{i:04d}".encode(), b"x" * 40)
        db.flush()
        outer = db.scan()
        next(outer)
        inner = db.scan()
        next(inner)
        for i in range(2000):
            db.put(f"k{i % 300:04d}".encode(), b"z" * 40)
        assert len(list(inner)) == 999
        assert len(list(outer)) == 999
        assert not db._pinned_versions

    def test_abandoned_iterator_cleaned_by_gc(self, db):
        import gc

        for i in range(500):
            db.put(f"k{i:04d}".encode(), b"x" * 40)
        db.flush()
        it = db.scan()
        next(it)
        del it  # abandoned without close()
        gc.collect()
        assert not db._pinned_versions

    def test_store_scan_during_background_churn(self):
        store = RocksMashStore.create(StoreConfig().small())
        for i in range(2000):
            store.put(f"k{i:05d}".encode(), b"x" * 60)
        it = store.db.scan()
        head = [next(it) for _ in range(10)]
        for i in range(2000):
            store.put(f"k{i % 400:05d}".encode(), b"y" * 60)
        tail = list(it)
        assert len(head) + len(tail) == 2000
        # Cache layers were only invalidated at true deletion time; reads
        # still work afterwards.
        for i in range(0, 2000, 211):
            assert store.get(f"k{i:05d}".encode()) is not None
