"""Unit tests for the simulated local device."""

import random
import tracemalloc

import pytest

from repro.errors import IOErrorSim, NotFoundError
from repro.sim.clock import SimClock
from repro.sim.failure import FaultInjector
from repro.storage.local import LocalDevice


@pytest.fixture
def device():
    return LocalDevice(SimClock())


class TestBasicIO:
    def test_create_append_read(self, device):
        device.create("f")
        device.append("f", b"hello ")
        device.append("f", b"world")
        assert device.read("f") == b"hello world"

    def test_read_range(self, device):
        device.create("f")
        device.append("f", b"0123456789")
        assert device.read("f", 2, 3) == b"234"
        assert device.read("f", 8, 100) == b"89"
        assert device.read("f", 20, 5) == b""

    def test_create_duplicate_raises(self, device):
        device.create("f")
        with pytest.raises(IOErrorSim):
            device.create("f")

    def test_missing_file_raises(self, device):
        with pytest.raises(NotFoundError):
            device.read("nope")
        with pytest.raises(NotFoundError):
            device.delete("nope")
        with pytest.raises(NotFoundError):
            device.rename("nope", "x")

    def test_write_file_atomic_replace(self, device):
        device.write_file("f", b"v1")
        device.write_file("f", b"v2")
        assert device.read("f") == b"v2"

    def test_rename(self, device):
        device.write_file("a", b"data")
        device.rename("a", "b")
        assert not device.exists("a")
        assert device.read("b") == b"data"

    def test_list_files(self, device):
        for name in ["db/1.sst", "db/2.sst", "wal/1.log"]:
            device.write_file(name, b"x")
        assert device.list_files("db/") == ["db/1.sst", "db/2.sst"]
        assert len(device.list_files()) == 3

    def test_size_and_used_bytes(self, device):
        device.create("f")
        device.append("f", b"abc")
        assert device.size("f") == 3
        device.write_file("g", b"12345")
        assert device.used_bytes() == 8


class TestTimeAccounting:
    def test_read_charges_clock(self):
        clock = SimClock()
        device = LocalDevice(clock)
        device.write_file("f", b"x" * 1024)
        before = clock.now
        device.read("f")
        assert clock.now > before

    def test_append_is_free_until_sync(self):
        clock = SimClock()
        device = LocalDevice(clock)
        device.create("f")
        start = clock.now
        device.append("f", b"x" * 10000)
        assert clock.now == start
        device.sync("f")
        assert clock.now > start

    def test_larger_reads_cost_more(self):
        clock = SimClock()
        device = LocalDevice(clock)
        device.write_file("small", b"x" * 100)
        device.write_file("big", b"x" * 10_000_000)
        t0 = clock.now
        device.read("small")
        small_cost = clock.now - t0
        t1 = clock.now
        device.read("big")
        big_cost = clock.now - t1
        assert big_cost > small_cost

    def test_ranged_read_does_not_copy_the_file(self, device):
        size = 4 << 20
        device.write_file("slab", bytes(size))
        tracemalloc.start()
        try:
            assert device.read("slab", size // 2, 64) == bytes(64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size // 64


class TestCrashSemantics:
    def test_unsynced_tail_lost(self, device):
        device.create("f")
        device.append("f", b"durable")
        device.sync("f")
        device.append("f", b" volatile")
        device.crash()
        assert device.read("f") == b"durable"

    def test_never_synced_file_disappears(self, device):
        device.create("f")
        device.append("f", b"data")
        device.crash()
        assert not device.exists("f")

    def test_synced_data_survives(self, device):
        device.write_file("f", b"safe")
        device.crash()
        assert device.read("f") == b"safe"

    def test_torn_tail_keeps_a_prefix_of_the_unsynced_bytes(self, device):
        tail = b" volatile tail"
        kept = set()
        for seed in range(20):
            name = f"f{seed}"
            device.write_file(name, b"durable")
            device.append(name, tail)
            device.crash(torn_tail=True, rng=random.Random(seed))
            survivor = device.read(name)
            assert survivor.startswith(b"durable")
            assert (b"durable" + tail).startswith(survivor)
            assert device.size(name) == len(survivor)
            kept.add(len(survivor) - len(b"durable"))
            device.crash()  # the surviving prefix is durable now
            assert device.read(name) == survivor
        assert len(kept) > 2 and min(kept) < len(tail)


class TestCapacityAndFaults:
    def test_capacity_enforced(self):
        device = LocalDevice(SimClock(), capacity_bytes=10)
        device.create("f")
        device.append("f", b"12345")
        with pytest.raises(IOErrorSim):
            device.append("f", b"678901")

    def test_fault_injection_on_read(self):
        faults = FaultInjector()
        device = LocalDevice(SimClock(), faults=faults)
        device.write_file("f", b"x")
        faults.schedule_failure()
        with pytest.raises(IOErrorSim):
            device.read("f")

    def test_counters(self):
        device = LocalDevice(SimClock())
        device.write_file("f", b"x" * 10)
        device.read("f")
        assert device.counters.get("local.read_ops") == 1
        assert device.counters.get("local.read_bytes") == 10
        assert device.counters.get("local.write_bytes") == 10
