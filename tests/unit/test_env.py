"""Unit tests for the Env abstraction (local, cloud, hybrid)."""

import pytest

from repro.errors import ClosedError, NotFoundError
from repro.sim.clock import SimClock
from repro.storage.cloud import CloudObjectStore
from repro.storage.env import CLOUD, LOCAL, CloudEnv, HybridEnv, LocalEnv
from repro.storage.local import LocalDevice


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def local_env(clock):
    return LocalEnv(LocalDevice(clock))


@pytest.fixture
def cloud_env(clock):
    return CloudEnv(CloudObjectStore(clock))


def _exercise_env(env):
    """Shared conformance checks for any Env implementation."""
    wf = env.new_writable_file("dir/file1")
    wf.append(b"hello ")
    wf.sync()
    wf.append(b"world")
    wf.close()
    assert env.file_exists("dir/file1")
    assert env.file_size("dir/file1") == 11
    assert env.read_file("dir/file1") == b"hello world"

    raf = env.new_random_access_file("dir/file1")
    assert raf.read(6, 5) == b"world"
    assert raf.size() == 11

    env.write_file("dir/file2", b"atomic")
    assert env.read_file("dir/file2") == b"atomic"

    assert env.list_files("dir/") == ["dir/file1", "dir/file2"]
    env.delete_file("dir/file2")
    assert not env.file_exists("dir/file2")


class TestLocalEnv:
    def test_conformance(self, local_env):
        _exercise_env(local_env)

    def test_closed_file_rejects_io(self, local_env):
        wf = local_env.new_writable_file("f")
        wf.close()
        with pytest.raises(ClosedError):
            wf.append(b"x")

    def test_double_close_ok(self, local_env):
        wf = local_env.new_writable_file("f")
        wf.close()
        wf.close()


class TestCloudEnv:
    def test_conformance(self, cloud_env):
        _exercise_env(cloud_env)

    def test_sync_reputs_whole_object(self, cloud_env):
        wf = cloud_env.new_writable_file("obj")
        wf.append(b"data")
        assert not cloud_env.file_exists("obj")  # nothing synced yet
        wf.sync()
        assert cloud_env.read_file("obj") == b"data"  # durable after sync
        wf.append(b"-more")
        wf.close()
        assert cloud_env.read_file("obj") == b"data-more"
        # Each sync re-uploaded the whole buffer: 4 + 9 bytes charged.
        assert cloud_env.store.counters.get("cloud.put_bytes") == 13

    def test_unsynced_appends_not_visible(self, cloud_env):
        wf = cloud_env.new_writable_file("obj")
        wf.append(b"v1")
        wf.sync()
        wf.append(b"v2")  # never synced or closed (crash)
        assert cloud_env.read_file("obj") == b"v1"

    def test_delete_missing_raises(self, cloud_env):
        with pytest.raises(NotFoundError):
            cloud_env.delete_file("missing")


class TestHybridEnv:
    @pytest.fixture
    def hybrid(self, local_env, cloud_env):
        # Route *.log local, everything else cloud.
        return HybridEnv(
            local_env, cloud_env, lambda name: LOCAL if name.endswith(".log") else CLOUD
        )

    def test_conformance(self, local_env, cloud_env):
        env = HybridEnv(local_env, cloud_env, lambda name: LOCAL)
        _exercise_env(env)

    def test_routing(self, hybrid, local_env, cloud_env):
        hybrid.write_file("000001.log", b"wal")
        hybrid.write_file("000002.sst", b"table")
        assert local_env.file_exists("000001.log")
        assert not cloud_env.file_exists("000001.log")
        assert cloud_env.file_exists("000002.sst")
        assert hybrid.tier_of("000001.log") == LOCAL
        assert hybrid.tier_of("000002.sst") == CLOUD

    def test_list_merges_tiers(self, hybrid):
        hybrid.write_file("a.log", b"1")
        hybrid.write_file("b.sst", b"2")
        assert hybrid.list_files() == ["a.log", "b.sst"]

    def test_reads_find_either_tier(self, hybrid):
        hybrid.write_file("a.log", b"local-data")
        hybrid.write_file("b.sst", b"cloud-data")
        assert hybrid.read_file("a.log") == b"local-data"
        assert hybrid.read_file("b.sst") == b"cloud-data"

    def test_tier_rediscovery_after_registry_loss(self, hybrid, local_env, cloud_env):
        hybrid.write_file("a.log", b"x")
        hybrid._registry.clear()  # simulate process restart
        assert hybrid.tier_of("a.log") == LOCAL

    def test_migrate(self, hybrid, local_env, cloud_env):
        hybrid.write_file("a.log", b"payload")
        hybrid.migrate("a.log", CLOUD)
        assert cloud_env.read_file("a.log") == b"payload"
        assert not local_env.file_exists("a.log")
        assert hybrid.tier_of("a.log") == CLOUD
        hybrid.migrate("a.log", CLOUD)  # no-op
        assert hybrid.read_file("a.log") == b"payload"

    def test_missing_everywhere_raises(self, hybrid):
        with pytest.raises(NotFoundError):
            hybrid.tier_of("ghost")
        assert not hybrid.file_exists("ghost")
