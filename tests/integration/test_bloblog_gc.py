"""Blob-log garbage collection correctness.

GC must reclaim exactly what compaction proved dead — no more (live
pointers keep resolving, held-open scans survive segment deletion) and
no less (deleting every key eventually empties the blob tier).
"""

from dataclasses import replace

import pytest

from repro.lsm.blob import encode_blob_record
from repro.lsm.check import check_db
from repro.lsm.format import parse_file_name
from repro.mash import bloblog
from repro.mash.store import RocksMashStore, StoreConfig


def blob_config() -> StoreConfig:
    config = StoreConfig().small()
    return replace(
        config,
        options=replace(config.options, blob_value_threshold=64, blob_segment_bytes=1 << 10),
    )


def key_of(i: int) -> bytes:
    return f"key{i:05d}".encode()


def big_value(i: int, size: int = 150) -> bytes:
    return f"v{i:05d}-".encode() + b"x" * size


def blob_files(store: RocksMashStore) -> list[str]:
    return [
        name
        for name in store.env.list_files(store.config.db_prefix)
        if (parsed := parse_file_name(store.config.db_prefix, name))
        and parsed[0] == "blob"
    ]


class TestFullReclamation:
    def test_deleting_everything_reclaims_every_diverted_byte(self):
        store = RocksMashStore.create(blob_config())
        for i in range(60):
            store.put(key_of(i), big_value(i), sync=True)
        store.flush()
        diverted = store.db.blob_store.stats()["bytes_diverted"]
        assert diverted > 0
        for i in range(60):
            store.delete(key_of(i))
        store.flush()
        store.compact_range()

        stats = store.db.blob_store.stats()
        assert store.db.versions.blob_segments == {}
        assert blob_files(store) == []
        assert stats["bytes_reclaimed"] == diverted
        report = check_db(store.env, store.config.db_prefix, store.config.options)
        assert report.errors == []
        store.close()


class TestDeadAccounting:
    def test_dead_bytes_match_oracle(self, monkeypatch):
        """Manifest-recorded dead bytes (plus bytes of fully-dead deleted
        segments) must equal an exact shadow account of every record whose
        pointer compaction dropped. A dead ratio of 1.0 disables rewrites so
        the ledger is undisturbed."""
        monkeypatch.setattr(bloblog, "GC_DEAD_RATIO", 1.0)
        store = RocksMashStore.create(blob_config())
        live: dict[bytes, bytes] = {}
        oracle_dead = 0
        for i in range(80):
            key = key_of(i % 13)
            value = big_value(i)
            if key in live:
                # The record length is sequence-independent, so a shadow
                # encode with sequence 0 sizes the dying record exactly.
                oracle_dead += len(encode_blob_record(0, key, live[key]))
            live[key] = value
            store.put(key, value, sync=True)
        for i in range(5):
            key = key_of(i)
            oracle_dead += len(encode_blob_record(0, key, live.pop(key)))
            store.delete(key)
        store.flush()
        store.compact_range()

        stats = store.db.blob_store.stats()
        recorded_dead = sum(
            dead for _total, dead in store.db.versions.blob_segments.values()
        )
        assert recorded_dead + stats["bytes_reclaimed"] == oracle_dead
        for key, value in live.items():
            assert store.get(key) == value
        store.close()


class TestConcurrentReaders:
    def test_held_open_scan_survives_segment_gc(self):
        """A scan opened before GC pins its version: segments the GC
        retires stay physically present until the scan finishes, so every
        pointer it yields still resolves."""
        store = RocksMashStore.create(blob_config())
        expected = {}
        for i in range(60):
            expected[key_of(i)] = big_value(i)
            store.put(key_of(i), expected[key_of(i)], sync=True)
        store.flush()
        store.compact_range()

        scan = store.db.scan()
        seen = [next(scan) for _ in range(10)]

        # Overwrite everything mid-scan; compaction kills the old segments.
        for i in range(60):
            store.put(key_of(i), big_value(i + 1000))
        store.flush()
        store.compact_range()
        assert store.db.blob_store.stats()["segments_deleted"] > 0
        assert store.db._deferred_blob_deletes, "GC should defer while pinned"

        seen += list(scan)  # drains and unpins
        assert dict(seen) == expected, "scan must see its pinned snapshot"
        assert not store.db._deferred_blob_deletes, "unpin drains deferred deletes"
        store.close()

    def test_interleaved_reads_never_dangle(self):
        """Reads interleaved with overwrite/delete/GC churn always return
        the current value — a dangling pointer would raise CorruptionError."""
        store = RocksMashStore.create(blob_config())
        live: dict[bytes, bytes] = {}
        for round_no in range(6):
            for i in range(30):
                key = key_of(i % 11)
                value = big_value(round_no * 100 + i)
                live[key] = value
                store.put(key, value)
                if i % 7 == 0:
                    probe = key_of((i + 3) % 11)
                    assert store.get(probe) == live.get(probe)
            if round_no % 2 == 1:
                doomed = key_of(round_no % 11)
                store.delete(doomed)
                live.pop(doomed, None)
            store.flush()
            store.compact_range()
            for key, value in live.items():
                assert store.get(key) == value
        assert store.db.blob_store.stats()["segments_deleted"] > 0
        report = check_db(store.env, store.config.db_prefix, store.config.options)
        assert report.errors == []
        store.close()


class TestRewrites:
    def test_partially_dead_segment_is_rewritten_once(self, monkeypatch):
        """A segment past the dead ratio gets its live residue re-put and
        is not rewritten again; the re-put values stay readable."""
        monkeypatch.setattr(bloblog, "GC_DEAD_RATIO", 0.3)
        store = RocksMashStore.create(blob_config())
        for i in range(12):
            store.put(key_of(i), big_value(i), sync=True)
        store.flush()
        # Kill most of the keys so sealed segments are mostly-dead.
        survivors = {key_of(i): big_value(i) for i in (1, 5, 9)}
        for i in range(12):
            if key_of(i) not in survivors:
                store.delete(key_of(i))
        store.flush()
        store.compact_range()
        stats = store.db.blob_store.stats()
        assert stats["gc_rewrites"] + stats["segments_deleted"] > 0
        for key, value in survivors.items():
            assert store.get(key) == value
        # The rewrite's own pointers must survive a restart too.
        store = store.reopen()
        for key, value in survivors.items():
            assert store.get(key) == value
        store.close()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
