"""Regression tests for the two narrowed except sites.

Both sites used to catch ``Exception``, which would have swallowed a
:class:`CrashPointFired` raised from below them — silently turning an
injected crash into a cache decision (the hybrid Env's tier probe) or a
truncated recovery scan (pcache). These tests fire a crash point *through*
each site and assert it propagates; reprolint rule RL003 guards the same
contract statically.
"""

import pytest

from repro.errors import NotFoundError
from repro.mash.pcache import PCacheConfig, PersistentCache
from repro.mash.store import RocksMashStore, StoreConfig
from repro.sim.clock import SimClock
from repro.sim.failure import CrashPointFired, crash_points
from repro.storage.local import LocalDevice


@pytest.fixture
def store():
    yield RocksMashStore.create(StoreConfig().small())


class TestIsCloudFileSite:
    """storage/env.py ``HybridEnv.is_cloud``: tier probing must not eat a
    crash point."""

    def test_crash_point_fired_propagates(self, store, monkeypatch):
        def exploding_tier_of(name):
            raise CrashPointFired("test.tier_probe")

        monkeypatch.setattr(store.env, "tier_of", exploding_tier_of)
        with pytest.raises(CrashPointFired):
            store.env.is_cloud("000001.sst")

    def test_missing_file_is_not_cloud(self, store):
        assert store.env.is_cloud("no-such-file.sst") is False

    def test_crash_point_fired_propagates_through_read_path(
        self, store, monkeypatch
    ):
        # End to end: a crash point firing under a read must surface to the
        # caller, not degrade into a "treat as local" cache decision.
        store.put(b"k", b"v" * 64)
        store.flush()

        original = type(store.env).tier_of

        def armed_tier_of(env, name):
            raise CrashPointFired("test.read_probe")

        monkeypatch.setattr(type(store.env), "tier_of", armed_tier_of)
        try:
            with pytest.raises(CrashPointFired):
                store.env.is_cloud("000001.sst")
        finally:
            monkeypatch.setattr(type(store.env), "tier_of", original)


class TestPCacheRecoverySite:
    """mash/pcache.py: the segment-recovery loop must not eat a crash point."""

    def _device_with_slab(self):
        device = LocalDevice(SimClock())
        cache = PersistentCache.open(device)
        cache.put_meta("t1.sst", "index", b"index-bytes")
        cache.put_data("t1.sst", 0, b"block-bytes")
        cache.close()
        return device

    def test_crash_point_fired_propagates_from_recovery(self, monkeypatch):
        device = self._device_with_slab()

        import repro.mash.pcache as pcache_mod

        def exploding_verify(data, stored):
            raise CrashPointFired("test.recover_verify")

        monkeypatch.setattr(pcache_mod, "verify_masked_crc32", exploding_verify)
        with pytest.raises(CrashPointFired):
            PersistentCache.open(device)

    def test_crash_point_in_varint_decode_propagates(self, monkeypatch):
        device = self._device_with_slab()

        import repro.mash.pcache as pcache_mod

        def exploding_decode(buf, offset=0):
            raise CrashPointFired("test.recover_decode")

        monkeypatch.setattr(pcache_mod, "decode_varint", exploding_decode)
        with pytest.raises(CrashPointFired):
            PersistentCache.open(device)

    def test_garbage_tail_still_recovers_cleanly(self):
        # The narrowed handler still does its real job: a torn/garbage tail
        # ends the scan at the last valid record instead of raising.
        device = self._device_with_slab()
        for segment in device.list_files(PCacheConfig().prefix):  # both logs' active segments
            device.append(segment, b"\x01\xff\xff\xff\xff\xff\xff\xff")
            device.sync(segment)
        cache = PersistentCache.open(device)
        assert cache.get_meta("t1.sst", "index") == b"index-bytes"
        assert cache.get_data("t1.sst", 0) == b"block-bytes"

    def test_registry_untouched_by_regression_fixtures(self):
        # Sanity: these tests never leave a site armed for later tests.
        assert crash_points.armed is None
