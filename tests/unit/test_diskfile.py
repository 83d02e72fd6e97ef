"""Unit tests for the directory-backed local device."""

import random

import pytest

from repro.errors import IOErrorSim, NotFoundError
from repro.sim.clock import SimClock
from repro.storage.diskfile import DirectoryBackedDevice
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice


@pytest.fixture
def device(tmp_path):
    return DirectoryBackedDevice(tmp_path / "dev", SimClock())


class TestBasicIO:
    def test_create_append_sync_read(self, device):
        device.create("f")
        device.append("f", b"hello ")
        device.append("f", b"world")
        assert device.read("f") == b"hello world"
        device.sync("f")
        assert device.read("f", 6, 5) == b"world"

    def test_write_file_atomic(self, device):
        device.write_file("dir/a", b"v1")
        device.write_file("dir/a", b"v2")
        assert device.read("dir/a") == b"v2"

    def test_rename_and_delete(self, device):
        device.write_file("a", b"data")
        device.rename("a", "sub/b")
        assert device.read("sub/b") == b"data"
        device.delete("sub/b")
        assert not device.exists("sub/b")
        with pytest.raises(NotFoundError):
            device.read("sub/b")

    def test_list_and_sizes(self, device):
        device.write_file("x/1", b"aa")
        device.create("x/2")
        device.append("x/2", b"bbb")
        assert device.list_files("x/") == ["x/1", "x/2"]
        assert device.size("x/1") == 2
        assert device.size("x/2") == 3
        assert device.used_bytes() == 5

    def test_duplicate_create_rejected(self, device):
        device.create("f")
        with pytest.raises(IOErrorSim):
            device.create("f")

    def test_path_escape_rejected(self, device):
        with pytest.raises(IOErrorSim):
            device.write_file("../escape", b"x")


class TestPersistence:
    def test_survives_new_device_instance(self, tmp_path):
        root = tmp_path / "dev"
        d1 = DirectoryBackedDevice(root, SimClock())
        d1.write_file("db/file", b"persisted")
        d2 = DirectoryBackedDevice(root, SimClock())
        assert d2.exists("db/file")
        assert d2.read("db/file") == b"persisted"

    def test_crash_drops_unsynced(self, device):
        device.create("f")
        device.append("f", b"durable")
        device.sync("f")
        device.append("f", b" volatile")
        device.crash()
        assert device.read("f") == b"durable"

    def test_crash_drops_never_synced_file(self, device):
        device.create("f")
        device.append("f", b"data")
        device.crash()
        assert not device.exists("f")

    def test_whole_db_survives_process_restart(self, tmp_path):
        """An entire DB on the device reopens from a fresh device object."""
        from repro.lsm.db import DB
        from repro.lsm.options import Options

        root = tmp_path / "store"
        options = Options(
            write_buffer_size=4 << 10,
            block_size=512,
            max_bytes_for_level_base=16 << 10,
            target_file_size_base=4 << 10,
            block_cache_bytes=0,
        )
        db = DB.open(LocalEnv(DirectoryBackedDevice(root, SimClock())), "db/", options)
        for i in range(800):
            db.put(f"k{i:04d}".encode(), f"v{i}".encode())
        db.close()
        # Simulated process restart: brand-new device over the same dir.
        db2 = DB.open(LocalEnv(DirectoryBackedDevice(root, SimClock())), "db/", options)
        for i in range(0, 800, 37):
            assert db2.get(f"k{i:04d}".encode()) == f"v{i}".encode()
        db2.close()

    def test_consistency_check_passes_on_disk(self, tmp_path):
        from repro.lsm.check import check_db
        from repro.lsm.db import DB
        from repro.lsm.options import Options

        root = tmp_path / "store"
        options = Options(write_buffer_size=4 << 10, block_size=512, block_cache_bytes=0)
        db = DB.open(LocalEnv(DirectoryBackedDevice(root, SimClock())), "db/", options)
        for i in range(500):
            db.put(f"k{i:04d}".encode(), b"v" * 40)
        db.flush()
        db.close()
        report = check_db(LocalEnv(DirectoryBackedDevice(root, SimClock())), "db/", options)
        assert report.ok, report.errors


class TestTiming:
    def test_clock_charged_like_memory_device(self, tmp_path):
        clock = SimClock()
        device = DirectoryBackedDevice(tmp_path / "dev", clock)
        device.write_file("f", b"x" * 100_000)
        t_write = clock.now
        assert t_write > 0
        device.read("f")
        assert clock.now > t_write


class TestMatchesInMemoryDevice:
    def test_scripted_sequence_is_indistinguishable(self, tmp_path):
        """Bytes, clock, counters and namespace equal LocalDevice's after
        every step; a fresh device on the directory holds the durable bytes."""
        root = tmp_path / "dev"
        memory = LocalDevice(SimClock())
        disk = DirectoryBackedDevice(root, SimClock())
        script = [
            lambda d: d.create("db/a"),
            lambda d: d.append("db/a", b"0123456789" * 50),
            lambda d: d.sync("db/a"),
            lambda d: d.append("db/a", b"unsynced tail"),
            lambda d: d.read("db/a", 495, 10),  # spans the durable mark
            lambda d: d.rename("db/a", "db/sub/b"),
            lambda d: d.write_file("db/c", b"first"),
            lambda d: d.write_file("db/c", b"second, replacing the first"),
            lambda d: d.create("db/never-synced"),
            lambda d: d.append("db/never-synced", b"x" * 40),
            lambda d: d.write_file("db/d", b"doomed"),
            lambda d: d.delete("db/d"),
            lambda d: d.crash(torn_tail=True, rng=random.Random(3)),
        ]
        for step in script:
            assert step(memory) == step(disk)
            assert disk.clock.now == memory.clock.now
            assert disk.counters.snapshot() == memory.counters.snapshot()
            assert disk.list_files() == memory.list_files()
            assert disk.used_bytes() == memory.used_bytes()
            for name in memory.list_files():
                assert disk.read(name) == memory.read(name)
        assert memory.size("db/sub/b") > 500  # the crash kept part of the tail
        reopened = DirectoryBackedDevice(root, SimClock())
        assert reopened.list_files() == memory.list_files()
        for name in memory.list_files():
            assert reopened.read(name) == memory.read(name)
            reopened.crash()  # loaded bytes are durable
            assert reopened.size(name) == memory.size(name)
