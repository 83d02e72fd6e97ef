"""Integration tests for cloud checkpoints and restores."""

from dataclasses import replace

import pytest

from repro.errors import NotFoundError
from repro.mash.checkpoint import (
    create_checkpoint,
    delete_checkpoint,
    list_checkpoints,
    restore_checkpoint,
)
from repro.mash.store import RocksMashStore, StoreConfig


@pytest.fixture
def store():
    s = RocksMashStore.create(StoreConfig().small())
    for i in range(2000):
        s.put(f"key{i:06d}".encode(), f"value-{i}".encode())
    return s


class TestCreate:
    def test_create_and_list(self, store):
        info = create_checkpoint(store, "nightly")
        assert info.num_tables > 0
        assert info.total_bytes > 0
        assert list_checkpoints(store.cloud_store) == ["nightly"]

    def test_cloud_tables_copied_not_uploaded(self, store):
        store.compact_range()  # push (almost) everything to cloud levels
        info = create_checkpoint(store, "cheap")
        # Server-side copies dominate: uploads are only the local upper levels.
        assert info.uploaded_bytes < info.total_bytes / 2

    def test_duplicate_name_rejected(self, store):
        create_checkpoint(store, "x")
        with pytest.raises(ValueError):
            create_checkpoint(store, "x")

    def test_invalid_name_rejected(self, store):
        with pytest.raises(ValueError):
            create_checkpoint(store, "a/b")
        with pytest.raises(ValueError):
            create_checkpoint(store, "")

    def test_memtable_captured(self, store):
        store.put(b"last-minute", b"write")  # still in the memtable
        create_checkpoint(store, "x")
        restored = restore_checkpoint(store.cloud_store, "x", store.config)
        assert restored.get(b"last-minute") == b"write"

    def test_store_keeps_running_after_checkpoint(self, store):
        create_checkpoint(store, "x")
        store.put(b"after", b"v")
        assert store.get(b"after") == b"v"
        store.compact_range()
        assert store.get(b"key000100") is not None


class TestRestore:
    def test_restore_full_contents(self, store):
        create_checkpoint(store, "x")
        restored = restore_checkpoint(store.cloud_store, "x", store.config)
        for i in range(0, 2000, 97):
            assert restored.get(f"key{i:06d}".encode()) == f"value-{i}".encode()
        assert len(restored.scan(limit=5)) == 5

    def test_restore_is_point_in_time(self, store):
        create_checkpoint(store, "x")
        store.put(b"key000000", b"MUTATED-AFTER")
        store.delete(b"key000001")
        restored = restore_checkpoint(store.cloud_store, "x", store.config)
        assert restored.get(b"key000000") == b"value-0"
        assert restored.get(b"key000001") == b"value-1"

    def test_restored_store_diverges_independently(self, store):
        create_checkpoint(store, "x")
        r1 = restore_checkpoint(store.cloud_store, "x", store.config)
        r2 = restore_checkpoint(store.cloud_store, "x", store.config)
        r1.put(b"who", b"r1")
        r2.put(b"who", b"r2")
        assert r1.get(b"who") == b"r1"
        assert r2.get(b"who") == b"r2"
        assert store.get(b"who") is None

    def test_restored_store_writable_and_compactable(self, store):
        create_checkpoint(store, "x")
        restored = restore_checkpoint(store.cloud_store, "x", store.config)
        for i in range(1000):
            restored.put(f"new{i:05d}".encode(), b"fresh" * 10)
        restored.compact_range()
        assert restored.get(b"new00500") == b"fresh" * 10
        assert restored.get(b"key000100") is not None

    def test_restored_store_survives_crash(self, store):
        create_checkpoint(store, "x")
        restored = restore_checkpoint(store.cloud_store, "x", store.config)
        restored.put(b"post-restore", b"v")
        recovered = restored.reopen(crash=True)
        assert recovered.get(b"post-restore") == b"v"
        assert recovered.get(b"key000100") is not None

    def test_restore_missing_raises(self, store):
        with pytest.raises(NotFoundError):
            restore_checkpoint(store.cloud_store, "ghost", store.config)

    def test_restore_consistency_checks_clean(self, store):
        from repro.lsm.check import check_db

        create_checkpoint(store, "x")
        restored = restore_checkpoint(store.cloud_store, "x", store.config)
        restored.close()
        report = check_db(restored.env, "db/", store.config.options)
        assert report.ok, report.errors


class TestCloneRegressions:
    """Found by the stateful oracle's ``checkpoint`` rule
    (``tests/property/test_store_machine.py``)."""

    def test_separated_store_checkpoint_restores_with_its_brand(self):
        """The checkpoint manifest left out the key-value separation brand, so
        restoring a blob-on store raised instead of opening the clone."""
        config = StoreConfig().small()
        config = replace(config, options=replace(config.options, blob_value_threshold=8))
        store = RocksMashStore.create(config)
        store.put(b"big", b"v" * 300)
        store.put(b"small", b"v")
        create_checkpoint(store, "x")
        clone = restore_checkpoint(
            store.cloud_store, "x", replace(store.config, db_prefix="clone/")
        )
        assert clone.db.blob_store is not None
        assert clone.scan() == [(b"big", b"v" * 300), (b"small", b"v")]

    def test_clone_leaves_the_source_spans_their_cloud_time(self, store):
        """Restoring repointed the shared cloud store at the clone's tracer:
        the source's later cloud reads went unattributed in its own spans."""
        from repro.obs.trace import span_conserved

        store.compact_range()  # the deep levels now live in the cloud
        create_checkpoint(store, "x")
        clone = restore_checkpoint(
            store.cloud_store, "x", replace(store.config, db_prefix="clone/")
        )
        clone.close()
        store.tracer.spans.clear()
        store.db.table_cache.clear()
        assert store.get(b"key000100") is not None
        (span,) = store.tracer.spans
        assert span.tiers.cloud > 0 and span_conserved(span)


class TestDelete:
    def test_delete_removes_objects(self, store):
        create_checkpoint(store, "x")
        removed = delete_checkpoint(store.cloud_store, "x")
        assert removed > 0
        assert list_checkpoints(store.cloud_store) == []
        with pytest.raises(NotFoundError):
            restore_checkpoint(store.cloud_store, "x", store.config)

    def test_delete_does_not_touch_live_db(self, store):
        create_checkpoint(store, "x")
        delete_checkpoint(store.cloud_store, "x")
        assert store.get(b"key000100") is not None
        store.compact_range()
        assert store.get(b"key001999") is not None
