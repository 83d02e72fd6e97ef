"""Unit tests for the extended (sharded) WAL."""

import pytest

from repro.errors import CorruptionError
from repro.lsm.wal import (
    XWalConfig,
    XWalReplayer,
    XWalWriter,
    decode_shard_record,
    encode_shard_record,
    shard_file_names,
    shard_of,
)
from repro.lsm.write_batch import WriteBatch
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import TYPE_DELETION, TYPE_VALUE


@pytest.fixture
def device():
    return LocalDevice(SimClock())


@pytest.fixture
def env(device):
    return LocalEnv(device)


def write_generation(env, device, ops_batches, *, shards=4, number=7):
    config = XWalConfig(num_shards=shards)
    writer = XWalWriter(env, "db/", number, config)
    for batch in ops_batches:
        writer.add_batch(batch)
    writer.close()
    return config


class TestShardRecord:
    def test_roundtrip(self):
        ops = [
            (10, TYPE_VALUE, b"key1", b"value1"),
            (11, TYPE_DELETION, b"key2", b""),
            (12, TYPE_VALUE, b"", b""),
        ]
        assert decode_shard_record(encode_shard_record(ops)) == ops

    def test_empty(self):
        assert decode_shard_record(encode_shard_record([])) == []

    def test_truncated_raises(self):
        data = encode_shard_record([(1, TYPE_VALUE, b"key", b"value")])
        with pytest.raises(CorruptionError):
            decode_shard_record(data[:-2])

    def test_trailing_garbage_raises(self):
        data = encode_shard_record([(1, TYPE_VALUE, b"k", b"v")])
        with pytest.raises(CorruptionError):
            decode_shard_record(data + b"x")


class TestSharding:
    def test_deterministic(self):
        assert shard_of(b"somekey", 8) == shard_of(b"somekey", 8)

    def test_within_range(self):
        for i in range(100):
            assert 0 <= shard_of(f"k{i}".encode(), 5) < 5

    def test_distribution_roughly_uniform(self):
        counts = [0] * 4
        for i in range(4000):
            counts[shard_of(f"key-{i}".encode(), 4)] += 1
        assert min(counts) > 600  # each shard gets a fair share

    def test_single_shard(self):
        assert shard_of(b"anything", 1) == 0

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError):
            XWalConfig(num_shards=0)


class TestWriteReplay:
    def test_roundtrip_all_ops(self, env, device):
        batches = []
        seq = 1
        for b in range(10):
            batch = WriteBatch()
            for i in range(7):
                if (b + i) % 5 == 0:
                    batch.delete(f"key-{b}-{i}".encode())
                else:
                    batch.put(f"key-{b}-{i}".encode(), f"val-{b}-{i}".encode())
            batch.sequence = seq
            seq += len(batch)
            batches.append(batch)
        config = write_generation(env, device, batches)

        replayer = XWalReplayer(env, config)
        ops = list(replayer.replay(7, env.list_files("db/000007-")))
        assert replayer.records_replayed == 70
        # Every (seq, key, value) written is recovered exactly once.
        expected = set()
        seq = 1
        for batch in batches:
            s = batch.sequence
            for op in batch:
                expected.add((s, op.value_type, op.key, op.value))
                s += 1
        assert set(ops) == expected

    def test_per_key_shard_affinity(self, env, device):
        # All updates of one key land in the same shard file.
        batch1 = WriteBatch().put(b"mykey", b"v1")
        batch1.sequence = 1
        batch2 = WriteBatch().put(b"mykey", b"v2")
        batch2.sequence = 2
        config = write_generation(env, device, [batch1, batch2], shards=4)
        shard = shard_of(b"mykey", 4)
        replayer = XWalReplayer(env, config)
        names_with_data = [
            n for n in shard_file_names("db/", 7, 4) if device.exists(n) and device.size(n) > 0
        ]
        assert names_with_data == [f"db/000007-{shard:02d}.xlog"]

    def test_replay_missing_generation_empty(self, env, device):
        replayer = XWalReplayer(env, XWalConfig())
        assert list(replayer.replay(99, env.list_files("db/000099-"))) == []

    def test_corrupt_shard_tolerated(self, env, device):
        batch = WriteBatch()
        for i in range(40):
            batch.put(f"key-{i}".encode(), b"v" * 20)
        batch.sequence = 1
        config = write_generation(env, device, [batch], shards=4)
        # Corrupt one shard's tail.
        victim = "db/000007-00.xlog"
        data = bytearray(device.read(victim))
        data[-1] ^= 0xFF
        device.delete(victim)
        device.write_file(victim, bytes(data))
        replayer = XWalReplayer(env, config)
        ops = list(replayer.replay(7, env.list_files("db/000007-")))
        assert replayer.corrupt_shards == 1
        assert 0 < len(ops) < 40  # other shards fully recovered

    def test_unsynced_batch_lost_on_crash(self, env, device):
        config = XWalConfig(num_shards=2)
        writer = XWalWriter(env, "db/", 7, config)
        b1 = WriteBatch().put(b"durable", b"v")
        b1.sequence = 1
        writer.add_batch(b1, sync=True)
        b2 = WriteBatch().put(b"volatile", b"v")
        b2.sequence = 2
        writer.add_batch(b2, sync=False)
        device.crash()
        replayer = XWalReplayer(env, config)
        keys = {op[2] for op in replayer.replay(7, env.list_files("db/000007-"))}
        assert b"durable" in keys
        assert b"volatile" not in keys


class TestParallelTiming:
    def _recovery_time(self, shards, records=400):
        clock = SimClock()
        device = LocalDevice(clock)
        env = LocalEnv(device)
        config = XWalConfig(num_shards=shards, apply_cost_per_record=10e-6)
        writer = XWalWriter(env, "db/", 1, config)
        seq = 1
        for i in range(records):
            batch = WriteBatch().put(f"key-{i:06d}".encode(), b"v" * 100)
            batch.sequence = seq
            seq += 1
            writer.add_batch(batch)
        writer.close()
        start = clock.now
        replayer = XWalReplayer(env, config)
        ops = list(replayer.replay(1, env.list_files("db/000001-")))
        assert len(ops) == records
        return clock.now - start

    def test_more_shards_recover_faster(self):
        t1 = self._recovery_time(1)
        t4 = self._recovery_time(4)
        t8 = self._recovery_time(8)
        assert t4 < t1 / 2
        assert t8 < t4

    def test_multi_shard_batch_sync_charged_as_max(self):
        # A batch touching many shards must not pay num_shards * sync cost.
        def fill_time(shards):
            clock = SimClock()
            device = LocalDevice(clock)
            env = LocalEnv(device)
            writer = XWalWriter(env, "db/", 1, XWalConfig(num_shards=shards))
            start = clock.now
            batch = WriteBatch()
            for i in range(64):
                batch.put(f"key-{i}".encode(), b"v" * 50)
            batch.sequence = 1
            writer.add_batch(batch, sync=True)
            return clock.now - start

        t1, t8 = fill_time(1), fill_time(8)
        assert t8 < t1 * 3  # parallel syncs, not 8x serial cost
