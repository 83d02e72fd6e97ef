"""Unit tests for the crash-point registry and torn-tail crashes."""

import random

import pytest

from repro.sim.clock import SimClock
from repro.sim.failure import (
    CRASH_SITES,
    CrashPointFired,
    CrashPointRegistry,
    armed,
    crash_points,
)
from repro.storage.local import LocalDevice


@pytest.fixture(autouse=True)
def _clean_registry():
    crash_points.reset()
    yield
    crash_points.reset()


class TestCrashPointRegistry:
    def test_disarmed_reach_is_a_noop(self):
        reg = CrashPointRegistry()
        reg.reach("flush.before_manifest")
        assert reg.hits["flush.before_manifest"] == 1
        assert reg.fired is None

    def test_armed_reach_fires_and_disarms(self):
        reg = CrashPointRegistry()
        reg.arm("flush.before_manifest")
        with pytest.raises(CrashPointFired) as exc:
            reg.reach("flush.before_manifest")
        assert exc.value.site == "flush.before_manifest"
        assert reg.fired == "flush.before_manifest"
        assert reg.armed is None
        reg.reach("flush.before_manifest")  # recovery re-entry survives

    def test_skip_counts_down(self):
        reg = CrashPointRegistry()
        reg.arm("xwal.partial_sync", skip=2)
        reg.reach("xwal.partial_sync")
        reg.reach("xwal.partial_sync")
        with pytest.raises(CrashPointFired):
            reg.reach("xwal.partial_sync")

    def test_other_sites_do_not_fire(self):
        reg = CrashPointRegistry()
        reg.arm("flush.before_manifest")
        reg.reach("compaction.mid_output")
        assert reg.fired is None

    def test_unknown_site_rejected(self):
        reg = CrashPointRegistry()
        with pytest.raises(ValueError):
            reg.arm("no.such.site")
        with pytest.raises(ValueError):
            reg.reach("no.such.site")

    def test_at_least_eight_distinct_sites_registered(self):
        assert len(CRASH_SITES) >= 8
        assert crash_points.sites() == sorted(CRASH_SITES)

    def test_armed_context_manager_disarms_on_exit(self):
        with armed("flush.before_manifest"):
            assert crash_points.armed == "flush.before_manifest"
        assert crash_points.armed is None
        with pytest.raises(CrashPointFired):
            with armed("flush.before_manifest"):
                crash_points.reach("flush.before_manifest")
        assert crash_points.armed is None


class TestTornTailCrash:
    def test_plain_crash_drops_whole_tail(self):
        device = LocalDevice(SimClock())
        device.create("f")
        device.append("f", b"synced")
        device.sync("f")
        device.append("f", b"pending")
        device.crash()
        assert device.read("f") == b"synced"

    def test_torn_tail_keeps_byte_prefix(self):
        device = LocalDevice(SimClock())
        device.create("f")
        device.append("f", b"synced")
        device.sync("f")
        device.append("f", b"0123456789")
        device.crash(torn_tail=True, rng=random.Random(3))
        data = device.read("f")
        assert data.startswith(b"synced")
        kept = data[len(b"synced") :]
        assert b"0123456789".startswith(kept)

    def test_torn_tail_is_deterministic(self):
        def run(seed):
            device = LocalDevice(SimClock())
            device.create("f")
            device.append("f", b"x" * 100)
            device.sync("f")
            device.append("f", b"y" * 100)
            device.crash(torn_tail=True, rng=random.Random(seed))
            return device.read("f")

        assert run(7) == run(7)

    def test_never_synced_file_with_zero_prefix_vanishes(self):
        # rng seeded so the single file keeps 0 pending bytes -> never
        # synced -> deleted, exactly like the non-torn crash.
        for seed in range(50):
            device = LocalDevice(SimClock())
            device.create("f")
            device.append("f", b"ab")
            device.crash(torn_tail=True, rng=random.Random(seed))
            if device.exists("f"):
                assert device.read("f") in (b"a", b"ab")
                break
        else:
            pytest.fail("no seed kept a prefix of the unsynced file")
