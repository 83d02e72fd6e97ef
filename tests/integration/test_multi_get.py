"""Integration tests for batched reads (multi_get)."""

import pytest

from repro.baselines import LocalOnlyConfig, LocalOnlyStore
from repro.bench.harness import HarnessKnobs, make_store, rocksmash_config
from repro.mash.store import RocksMashStore, StoreConfig
from repro.serve import ServeConfig, ShardedDB
from repro.workloads.dbbench import fill_database
from repro.workloads.generator import make_key


def mash_store():
    return RocksMashStore.create(StoreConfig().small())


def fill(store, n=3000):
    for i in range(n):
        store.put(f"key{i:06d}".encode(), f"value-{i}".encode())
    store.flush()


class TestCorrectness:
    def test_matches_individual_gets(self):
        store = mash_store()
        fill(store)
        keys = [f"key{i:06d}".encode() for i in range(0, 3000, 200)]
        keys.append(b"missing-key")
        batched = store.multi_get(keys)
        assert set(batched) == set(keys)
        for key in keys:
            assert batched[key] == store.get(key), key

    def test_snapshot_respected(self):
        store = mash_store()
        store.put(b"k", b"old")
        snap = store.snapshot()
        store.put(b"k", b"new")
        assert store.multi_get([b"k"], snapshot=snap)[b"k"] == b"old"
        assert store.multi_get([b"k"])[b"k"] == b"new"
        store.release_snapshot(snap)

    def test_empty_and_single(self):
        store = mash_store()
        store.put(b"k", b"v")
        assert store.multi_get([]) == {}
        assert store.multi_get([b"k"]) == {b"k": b"v"}

    def test_baseline_sequential_multi_get(self):
        store = LocalOnlyStore.create(LocalOnlyConfig().small())
        for i in range(100):
            store.put(f"k{i:03d}".encode(), b"v")
        got = store.multi_get([b"k000", b"k050", b"nope"])
        assert got == {b"k000": b"v", b"k050": b"v", b"nope": None}

    def test_clock_restored_after_batch(self):
        store = mash_store()
        fill(store, 500)
        store.multi_get([f"key{i:06d}".encode() for i in range(50)])
        assert store.local_device.clock is store.clock
        assert store.cloud_store.clock is store.clock
        # Normal operation continues fine.
        store.put(b"after", b"v")
        assert store.get(b"after") == b"v"


class TestParallelTiming:
    def test_parallel_faster_than_sequential(self):
        """E14's claim: a 16-key cold batch costs less simulated time than
        the same 16 keys read by sequential gets."""
        # Keys spread across the keyspace, so each needs its own cold block.
        keys = [f"key{i:06d}".encode() for i in range(0, 3000, 3000 // 16)][:16]
        batched, sequential = mash_store(), mash_store()
        fill(batched)
        fill(sequential)

        start = batched.clock.now
        got = batched.multi_get(keys)
        batch_seconds = batched.clock.now - start

        start = sequential.clock.now
        expect = {key: sequential.get(key) for key in keys}
        sequential_seconds = sequential.clock.now - start

        assert got == expect
        assert batch_seconds < sequential_seconds / 2

    def test_one_shard_node_batches_like_a_single_store(self):
        """The waves run in the engine, so a sharded node's multi_get gets
        them per shard: 64 cold keys on a one-shard node take the single
        store's simulated time (0.1442 s), not the 0.6488 s of 64 gets one
        after another. The two differ only by the shard's longer persistent
        cache record names."""
        knobs = HarnessKnobs(block_cache_bytes=0)
        records = 3000
        keys = [make_key(i) for i in range(0, records, 7)][:64]
        store = make_store("rocksmash", knobs)
        node = ShardedDB.create(
            ServeConfig(base=rocksmash_config(knobs), num_shards=1, key_space=records)
        )
        seconds, answers = [], []
        for target in (store, node):
            fill_database(target, records)
            start = target.clock.now
            answers.append(target.multi_get(keys))
            seconds.append(target.clock.now - start)
        assert answers[0] == answers[1]
        assert None not in answers[0].values()
        assert seconds[0] == pytest.approx(0.1442, abs=1e-4)
        assert seconds[1] == pytest.approx(seconds[0], rel=1e-5)
