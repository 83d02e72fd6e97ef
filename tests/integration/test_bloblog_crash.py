"""Blob-log crash-protocol regressions.

Four invariants the review of the blob log hardened:

* recovery's re-seal of a crashed active segment is itself crash-idempotent
  — a second crash anywhere inside it (including mid multipart upload, where
  the cloud object is still invisible) must leave a durable copy behind;
* a sync=True WAL append makes *every* earlier unsynced WAL record durable,
  so the blob bytes behind pointers from prior sync=False batches must be
  synced first, even by a batch that diverts nothing itself;
* the MANIFEST only ever records a segment whose object is already in the
  cloud — a commit that ran ahead of its upload would, after a crash in
  between, leave live pointers into a segment that exists nowhere durable;
* key-value separation is a store-lifetime choice: the MANIFEST brands
  separated stores at creation and an unbranded store refuses to open with
  separation enabled (a raw value starting with the pointer magic would be
  misread as a pointer).
"""

from dataclasses import replace

import pytest

from repro.errors import InvalidArgumentError
from repro.lsm.check import check_db
from repro.lsm.format import blob_file_name
from repro.lsm.version import VersionEdit, VersionSet
from repro.mash.store import RocksMashStore, StoreConfig
from repro.mash.xwal import XWalConfig
from repro.sim.failure import CrashPointFired, crash_points


@pytest.fixture(autouse=True)
def _clean_registry():
    crash_points.reset()
    yield
    crash_points.reset()


def blob_config() -> StoreConfig:
    """Blob separation on; big buffers/segments so nothing seals or flushes
    until the test says so; 1 KiB multipart parts so a few diverted values
    already make the re-seal upload multi-part."""
    config = StoreConfig().small()
    return replace(
        config,
        options=replace(
            config.options,
            write_buffer_size=1 << 20,
            blob_value_threshold=64,
            blob_segment_bytes=1 << 20,
        ),
        placement=replace(config.placement, multipart_part_bytes=1 << 10),
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


class TestRecoveryResealCrash:
    @pytest.mark.parametrize(
        "site", ["bloblog.seal_mid_upload", "bloblog.seal_before_manifest"]
    )
    def test_crash_inside_recovery_reseal_loses_nothing(self, site):
        """Crash once with the active segment unmanifested, then crash again
        inside the recovery that re-seals it. Every acked value must survive
        the double crash: the re-seal keeps a durable (truncated-in-place)
        local copy until the MANIFEST edit commits, so the third recovery
        has something to adopt."""
        store = RocksMashStore.create(blob_config())
        expected = {}
        for i in range(8):  # ~4 KiB of records: multi-part at 1 KiB parts
            expected[key_of(i)] = big_value(i)
            store.put(key_of(i), expected[key_of(i)], sync=True)
        assert store.db.blob_store.active_offset > 0, "segment must be active"
        assert store.db.versions.blob_segments == {}, "and unmanifested"

        crash_points.arm(site)
        with pytest.raises(CrashPointFired):
            store.reopen(crash=True)  # crash #1 + recovery that crashes again
        crash_points.disarm()

        store = reopen_after(store)  # crash #2, this recovery must complete
        for key, value in expected.items():
            assert store.get(key) == value
        report = check_db(store.env, store.config.db_prefix, store.config.options)
        assert report.errors == []
        store.close()

    def test_reseal_commit_then_local_cleanup(self):
        """The happy-path re-seal still cleans up: after an uninterrupted
        recovery the adopted segment is MANIFEST-known, cloud-resident, and
        the local copy is gone."""
        store = RocksMashStore.create(blob_config())
        for i in range(8):
            store.put(key_of(i), big_value(i), sync=True)
        store = store.reopen(crash=True)
        assert len(store.db.versions.blob_segments) == 1
        (number,) = store.db.versions.blob_segments
        name = blob_file_name(store.config.db_prefix, number)
        assert store.cloud_store.exists(name)
        assert not store.local_device.exists(name)
        store.close()


class TestUnsyncedBlobBeforeWalSync:
    def test_later_sync_batch_syncs_earlier_blob_bytes(self):
        """A sync=False diverted put followed by a sync=True put that diverts
        nothing: the WAL sync makes the earlier pointer record durable, so
        the blob bytes must be made durable first. Pre-fix this crashed
        recovery with 'referenced bytes extend past clean prefix'."""
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
        a segment: flush-time seal, recovery's re-seal of a crashed active
        segment, and the seal of GC-rewritten residue. No crash schedule
        sees a reordering (the uninterrupted run ends in the same state),
        so the commit is intercepted instead. Patched on the class because
        the re-seal commits inside ``reopen``, on a VersionSet the test
        never holds."""
        recorded: list[int] = []
        real_log_and_apply = VersionSet.log_and_apply

        def checked_log_and_apply(versions: VersionSet, edit: VersionEdit) -> None:
            for number, _total, _dead in edit.blob_segments:
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
        store.flush()  # seals the active segment
        assert len(set(recorded)) == 1

        for i in range(8, 12):
            store.put(key_of(i), big_value(i), sync=True)
        store = store.reopen(crash=True)  # recovery re-seals the crashed segment
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


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
