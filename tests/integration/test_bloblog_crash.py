"""Blob-log crash-protocol regressions.

Six invariants the review of the blob log hardened:

* a diverted value is logged once, inside its xWAL record: a synced put of
  one is one local sync;
* a flush's segments commit in the flush's own MANIFEST edit — a crash
  after their upload and before that commit leaves objects the MANIFEST
  does not know, and recovery deletes them and seals the replayed values
  again, even when the recovery's own flush crashes there too;
* a sync=True WAL append makes *every* earlier unsynced record of its shard
  durable, values included;
* the MANIFEST only ever records a segment whose object is already in the
  cloud — a commit that ran ahead of its upload would, after a crash in
  between, leave live pointers into a segment that exists nowhere durable;
* key-value separation is a store-lifetime choice: the MANIFEST brands
  separated stores at creation and an unbranded store refuses to open with
  separation enabled (a raw value starting with the pointer magic would be
  misread as a pointer);
* an unsynced put whose xWAL record a torn-tail crash cut short is the
  start of its shard's torn tail: recovery drops it and opens.
"""

from dataclasses import replace

import pytest

from repro.errors import InvalidArgumentError
from repro.lsm.check import check_db
from repro.lsm.format import blob_file_name, parse_file_name, xlog_file_name
from repro.lsm.version import VersionEdit, VersionSet
from repro.lsm.wal import XWalConfig
from repro.mash.store import RocksMashStore, StoreConfig
from repro.sim.failure import CrashPointFired, crash_points


@pytest.fixture(autouse=True)
def _clean_registry():
    crash_points.reset()
    yield
    crash_points.reset()


def blob_config() -> StoreConfig:
    """Blob separation on; a big write buffer so nothing seals or flushes
    until the test says so."""
    config = StoreConfig().small()
    return replace(
        config,
        options=replace(config.options, write_buffer_size=1 << 20, blob_value_threshold=64),
        xwal=XWalConfig(num_shards=1),
    )


def key_of(i: int) -> bytes:
    return f"key{i:05d}".encode()


def big_value(i: int, size: int = 500) -> bytes:
    return f"v{i:05d}-".encode() + b"x" * size


def reopen_after(store: RocksMashStore) -> RocksMashStore:
    """Rebuild a store over devices whose previous recovery itself crashed
    (the interrupted ``reopen`` never returned an instance)."""
    return store.reopen(crash=True)


def unknown_segments(store: RocksMashStore) -> list[str]:
    """Blob segment objects the MANIFEST does not record."""
    prefix = store.config.db_prefix
    return [
        name
        for name in store.cloud_store.list_keys(prefix)
        if (parsed := parse_file_name(prefix, name))
        and parsed[0] == "blob"
        and parsed[1] not in store.db.versions.blob_segments
    ]


class TestOneLog:
    def test_a_synced_diverted_put_is_one_local_sync(self):
        """The value is logged inside its xWAL record, so the record's sync
        makes the put durable, value and all: no second log to sync first."""
        store = RocksMashStore.create(blob_config())
        before = store.counters.get("local.sync_ops")
        store.put(key_of(0), big_value(0), sync=True)
        assert store.counters.get("local.sync_ops") - before == 1
        assert store.db.blob_store.stats()["records_diverted"] == 1
        store = store.reopen(crash=True)
        assert store.get(key_of(0)) == big_value(0)
        store.close()


class TestSegmentCommitsWithItsFlush:
    def test_crash_between_upload_and_commit_recovers_every_key(self):
        """A crash at ``flush.before_manifest`` finds the flush's segment
        uploaded but unknown to the MANIFEST. Recovery deletes it, replays
        the values from the log and seals them again: every acked key reads
        back and no segment object is left that the MANIFEST does not know."""
        config = replace(blob_config(), xwal=XWalConfig(num_shards=4))
        store = RocksMashStore.create(config)
        expected = {key_of(i): big_value(i) for i in range(8)}
        for key, value in expected.items():
            store.put(key, value, sync=True)
        crash_points.arm("flush.before_manifest")
        with pytest.raises(CrashPointFired):
            store.flush()
        crash_points.disarm()
        assert store.db.versions.blob_segments == {}
        assert len(unknown_segments(store)) == 1, "uploaded, not committed"

        store = store.reopen(crash=True)
        assert unknown_segments(store) == []
        assert len(store.db.versions.blob_segments) == 1
        for key, value in expected.items():
            assert store.get(key) == value
        report = check_db(store.env, store.config.db_prefix, store.config.options)
        assert report.errors == []
        store.close()


class TestRecoveryResealCrash:
    @pytest.mark.parametrize("site", ["flush.before_manifest"])
    def test_crash_inside_recovery_reseal_loses_nothing(self, site):
        """Crash once with the values only in the log, then crash again
        inside the recovery flush that seals them, after its upload and
        before its commit. Every acked value must survive the double crash:
        the log stays until a seal commits, and the next recovery deletes
        the uncommitted object and seals again."""
        store = RocksMashStore.create(blob_config())
        expected = {}
        for i in range(8):
            expected[key_of(i)] = big_value(i)
            store.put(key_of(i), expected[key_of(i)], sync=True)
        assert store.db.blob_store.unsealed, "values in the log"
        assert store.db.versions.blob_segments == {}, "and unmanifested"

        crash_points.arm(site)
        with pytest.raises(CrashPointFired):
            store.reopen(crash=True)  # crash #1 + recovery that crashes again
        crash_points.disarm()

        store = reopen_after(store)  # crash #2, this recovery must complete
        for key, value in expected.items():
            assert store.get(key) == value
        assert unknown_segments(store) == []
        report = check_db(store.env, store.config.db_prefix, store.config.options)
        assert report.errors == []
        store.close()

    def test_reseal_commit_then_local_cleanup(self):
        """The recovery flush cleans up: after an uninterrupted recovery the
        replayed generation's segment is MANIFEST-known and cloud-resident,
        and the generation's local log is gone."""
        store = RocksMashStore.create(blob_config())
        for i in range(8):
            store.put(key_of(i), big_value(i), sync=True)
        store = store.reopen(crash=True)
        assert len(store.db.versions.blob_segments) == 1
        (number,) = store.db.versions.blob_segments
        name = blob_file_name(store.config.db_prefix, number)
        assert store.cloud_store.exists(name)
        assert not store.local_device.exists(name)
        assert not store.local_device.exists(xlog_file_name(store.config.db_prefix, number, 0))
        store.close()


class TestUnsyncedBlobBeforeWalSync:
    def test_later_sync_batch_syncs_earlier_blob_bytes(self):
        """A sync=False diverted put followed by a sync=True put that diverts
        nothing: the WAL sync makes the earlier record durable, and its
        value with it, since the value is inside the record."""
        store = RocksMashStore.create(blob_config())
        large = big_value(0)
        store.put(key_of(0), large, sync=False)
        store.put(key_of(1), b"small", sync=True)  # below threshold, no divert

        store = store.reopen(crash=True)
        # One xWAL shard: the sync=True append synced the whole shard file,
        # so the earlier pointer record is durable — and must resolve.
        assert store.get(key_of(0)) == large
        assert store.get(key_of(1)) == b"small"
        report = check_db(store.env, store.config.db_prefix, store.config.options)
        assert report.errors == []
        store.close()

    def test_unsynced_pair_stays_consistently_volatile(self):
        """With no later sync at all, the pointer and its blob bytes are
        dropped together: recovery succeeds and the unacked write is simply
        absent."""
        store = RocksMashStore.create(blob_config())
        store.put(key_of(0), big_value(0), sync=False)
        store = store.reopen(crash=True)
        assert store.get(key_of(0)) is None
        store.close()


class TestSegmentUploadedBeforeManifest:
    def test_every_recorded_segment_is_already_in_the_cloud(self, monkeypatch):
        """Check the order at the commit itself, on every path that records
        a segment: a flush's seal, the recovery flush's seal of replayed
        values, and the seal of GC-rewritten residue. No crash schedule
        sees a reordering (the uninterrupted run ends in the same state),
        so the commit is intercepted instead. Patched on the class because
        the recovery flush commits inside ``reopen``, on a VersionSet the
        test never holds."""
        recorded: list[int] = []
        real_log_and_apply = VersionSet.log_and_apply

        def checked_log_and_apply(versions: VersionSet, edit: VersionEdit) -> None:
            for number, _total, _dead, _shards in edit.blob_segments:
                name = blob_file_name(versions.prefix, number)
                assert versions.env.cloud.store.exists(name), (
                    f"MANIFEST edit records blob segment {number} before "
                    f"{name} exists in the cloud"
                )
                recorded.append(number)
            real_log_and_apply(versions, edit)

        monkeypatch.setattr(VersionSet, "log_and_apply", checked_log_and_apply)

        store = RocksMashStore.create(blob_config())
        for i in range(8):
            store.put(key_of(i), big_value(i), sync=True)
        store.flush()  # seals the generation's log
        assert len(set(recorded)) == 1

        for i in range(8, 12):
            store.put(key_of(i), big_value(i), sync=True)
        store = store.reopen(crash=True)  # the recovery flush seals the replay
        assert len(set(recorded)) == 2

        # Kill most of the first segment so GC rewrites its live residue,
        # which the next flush seals into a third segment.
        for i in range(6):
            store.delete(key_of(i))
        store.flush()
        store.compact_range()
        assert store.db.blob_store.gc_rewrites > 0
        store.flush()
        assert len(set(recorded)) >= 3

        for i in range(6, 12):
            assert store.get(key_of(i)) == big_value(i)
        store.close()


class TestSeparationBrand:
    def test_unbranded_store_refuses_separation(self):
        """Enabling separation on a store created without it is refused:
        a raw 32-byte value stored verbatim could start with the pointer
        magic and would be misread as a pointer on the read path."""
        plain = replace(
            blob_config(),
            options=replace(blob_config().options, blob_value_threshold=0),
        )
        store = RocksMashStore.create(plain)
        store.put(key_of(0), b"plain-value", sync=True)
        store.close()
        with pytest.raises(InvalidArgumentError):
            RocksMashStore(
                blob_config(),
                clock=store.clock,
                local_device=store.local_device,
                cloud_store=store.cloud_store,
                counters=store.counters,
            )

    def test_brand_persists_across_reopen_and_rewrite(self):
        """A store created with separation on is branded in the MANIFEST and
        keeps working across restarts (manifest rewrites carry the brand)."""
        store = RocksMashStore.create(blob_config())
        store.put(key_of(0), big_value(0), sync=True)
        store.flush()
        store.db.versions.rewrite_manifest()
        store = store.reopen()
        assert store.db.versions.blob_separation_enabled
        assert store.get(key_of(0)) == big_value(0)
        store = store.reopen(crash=True)
        assert store.db.versions.blob_separation_enabled
        store.close()


class TestShardCountIsStoreLifetime:
    def test_reopen_with_fewer_shards_is_refused_before_any_replay(self):
        """A separated store finds a key's unsealed record by its shard under
        the configured count, so recovery refuses a log holding a shard file
        past it, and deletes nothing; reopened with the count it was written
        with, the store has every synced value."""
        config = replace(blob_config(), xwal=XWalConfig(num_shards=4))
        store = RocksMashStore.create(config)
        for i in range(40):
            store.put(key_of(i), big_value(i), sync=True)
        store.local_device.crash()
        store.db.abandon()
        before = store.local_device.list_files("db/")
        with pytest.raises(InvalidArgumentError, match="num_shards=1"):
            RocksMashStore(
                replace(config, xwal=XWalConfig(num_shards=1)),
                clock=store.clock,
                local_device=store.local_device,
                cloud_store=store.cloud_store,
                counters=store.counters,
            )
        assert store.local_device.list_files("db/") == before
        store = RocksMashStore(
            config,
            clock=store.clock,
            local_device=store.local_device,
            cloud_store=store.cloud_store,
            counters=store.counters,
        )
        for i in range(40):
            assert store.get(key_of(i)) == big_value(i)
        report = check_db(store.env, store.config.db_prefix, store.config.options)
        assert report.errors == []
        store.close()


class TestTornBlobTail:
    @pytest.mark.parametrize("seed", [20, 115, 125, 179, 185])
    def test_pointer_past_the_clean_prefix_starts_the_torn_tail(self, seed):
        """The torn tail keeps the unsynced put's whole xWAL record but only
        part of its blob record (these seeds do, with the default four
        shards). The write was never acknowledged: recovery drops it instead
        of refusing to open, and the synced put reads back."""
        config = StoreConfig().small()
        config = replace(config, options=replace(config.options, blob_value_threshold=128))
        store = RocksMashStore.create(config)
        store.put(b"k0", b"v" * 300)
        store.put(b"k1", b"w" * 300, sync=False)
        store = store.reopen(crash=True, torn_tail_seed=seed)
        assert store.get(b"k0") == b"v" * 300
        assert store.get(b"k1") is None
        assert store.db.last_recovery_corrupt_shards == 1
        report = check_db(store.env, store.config.db_prefix, store.config.options)
        assert report.errors == []
        store.close()


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
