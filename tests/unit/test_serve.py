"""Unit tests for the sharded serving layer (router, node, front-end)."""

from dataclasses import replace

import pytest

from repro.mash.store import StoreConfig
from repro.serve import (
    FrontendConfig,
    KeyRangeRouter,
    ServeConfig,
    ShardedDB,
    SingleStoreServer,
    run_open_loop,
)
from repro.workloads import ycsb
from repro.workloads.generator import make_key


def make_node(shards=4, key_space=200, **kw):
    return ShardedDB(
        ServeConfig(
            base=StoreConfig().small(), num_shards=shards, key_space=key_space, **kw
        )
    )


class TestKeyRangeRouter:
    def test_uniform_split(self):
        router = KeyRangeRouter.uniform(4, 100)
        assert router.num_shards == 4
        assert router.boundaries == (make_key(25), make_key(50), make_key(75))

    def test_single_shard_has_no_boundaries(self):
        router = KeyRangeRouter.uniform(1, 100)
        assert router.num_shards == 1
        assert router.shard_of(b"") == 0
        assert router.shard_of(make_key(10**11)) == 0

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            KeyRangeRouter((b"b", b"a"))
        with pytest.raises(ValueError):
            KeyRangeRouter((b"a", b"a"))

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            KeyRangeRouter.uniform(101, 100)
        with pytest.raises(ValueError):
            KeyRangeRouter.uniform(0, 100)

    def test_boundary_key_goes_to_upper_shard(self):
        router = KeyRangeRouter.uniform(4, 100)
        assert router.shard_of(make_key(25)) == 1
        assert router.shard_of(make_key(24)) == 0
        assert router.shard_of(make_key(50)) == 2
        assert router.shard_of(make_key(0)) == 0
        assert router.shard_of(make_key(99)) == 3
        assert router.shard_of(make_key(10_000)) == 3  # beyond the keyspace

    def test_shards_for_range_open_bounds(self):
        router = KeyRangeRouter.uniform(4, 100)
        assert list(router.shards_for_range(None, None)) == [0, 1, 2, 3]
        assert list(router.shards_for_range(make_key(60), None)) == [2, 3]
        assert list(router.shards_for_range(None, make_key(30))) == [0, 1]

    def test_shards_for_range_half_open_end_on_boundary(self):
        router = KeyRangeRouter.uniform(4, 100)
        # end == boundary excludes the shard that *starts* at the boundary.
        assert list(router.shards_for_range(None, make_key(50))) == [0, 1]
        assert list(router.shards_for_range(make_key(25), make_key(50))) == [1]
        # ... but a begin on the boundary includes it.
        assert list(router.shards_for_range(make_key(50), make_key(51))) == [2]

    def test_shards_for_range_within_one_shard(self):
        router = KeyRangeRouter.uniform(4, 100)
        assert list(router.shards_for_range(make_key(30), make_key(40))) == [1]


class TestShardedDB:
    def test_point_ops_route_and_read_back(self):
        node = make_node()
        for i in range(0, 200, 7):
            node.put(make_key(i), b"v%d" % i)
        for i in range(0, 200, 7):
            assert node.get(make_key(i)) == b"v%d" % i
        assert node.get(make_key(1)) is None

    def test_data_lands_on_owning_shard_only(self):
        node = make_node()
        node.put(make_key(10), b"a")  # shard 0
        node.put(make_key(150), b"b")  # shard 3
        assert node.shards[0].db.get(make_key(10)) == b"a"
        assert node.shards[3].db.get(make_key(150)) == b"b"
        assert node.shards[0].db.get(make_key(150)) is None

    def test_cross_shard_scan_is_globally_ordered(self):
        node = make_node()
        for i in range(200):
            node.put(make_key(i), b"v%d" % i)
        results = node.scan(None, None)
        assert [k for k, _ in results] == [make_key(i) for i in range(200)]
        limited = node.scan(make_key(40), None, limit=30)
        assert [k for k, _ in limited] == [make_key(i) for i in range(40, 70)]

    def test_multi_get_spans_shards(self):
        node = make_node()
        for i in range(200):
            node.put(make_key(i), b"v%d" % i)
        keys = [make_key(i) for i in (5, 60, 120, 199, 777)]
        results = node.multi_get(keys)
        assert list(results) == keys
        assert results[make_key(60)] == b"v60"
        assert results[make_key(777)] is None

    def test_write_batch_split_by_shard(self):
        from repro.lsm.write_batch import WriteBatch

        node = make_node()
        node.put(make_key(199), b"doomed")
        batch = WriteBatch()
        batch.put(make_key(1), b"one")
        batch.put(make_key(130), b"two")
        batch.delete(make_key(199))
        node.write(batch)
        assert node.get(make_key(1)) == b"one"
        assert node.get(make_key(130)) == b"two"
        assert node.get(make_key(199)) is None

    def test_deferred_maintenance_runs_off_the_write_path(self):
        node = make_node(shards=2)
        wrote = 0
        # Fill one shard's memtable past its 4 KiB small() budget: with
        # deferral on, the flush must NOT happen inside put().
        while not node._pending and wrote < 500:
            node._in_request = True  # suppress the closed-loop drain
            node.put(make_key(wrote % 100), b"x" * 64)
            wrote += 1
        node._in_request = False
        assert node._pending
        assert all(len(node.shards[i].db.memtable) > 0 for i in node._pending)
        clock = node.clock.child()
        assert node.run_pending_maintenance(clock) > 0
        assert not node._pending
        assert node.maintenance_events > 0
        # Flush really happened: the dirty shard's memtable was emptied.
        assert node.get(make_key(1)) is not None

    def test_inline_drain_outside_request_scope(self):
        node = make_node(shards=1, key_space=200)
        for i in range(300):
            node.put(make_key(i % 100), b"y" * 64)
        # Closed-loop drains keep pending empty without explicit calls.
        assert not node._pending
        assert node.maintenance_events > 0

    def test_one_tracer_spans_all_shards(self):
        node = make_node()
        node.put(make_key(10), b"a")
        node.put(make_key(150), b"b")
        assert node.get(make_key(150)) == b"b"
        ops = [s.op for s in node.tracer.spans]
        assert "put" in ops and "get" in ops
        assert node.local_device.tracer is node.tracer
        assert all(shard.tracer is node.tracer for shard in node.shards)

    def test_shards_never_build_a_prefetch_pipeline(self):
        # The router's branches already overlap the shards' scans, so the
        # node pins every shard's depth at 0 whatever the base config asks
        # for.
        base = StoreConfig().small()
        base = replace(base, options=replace(base.options, scan_prefetch_depth=2))
        node = ShardedDB(ServeConfig(base=base, num_shards=2, key_space=400))
        for i in range(400):
            node.put(make_key(i), b"v" * 64)
        assert len(node.scan(make_key(150), make_key(250))) == 100
        assert node.tracer.event_count("seek_fanout") == 0
        assert node.tracer.event_count("prefetch_issue") == 0

    def test_shards_touched(self):
        node = make_node()
        assert node.shards_touched(ycsb.Op("read", make_key(60))) == (1,)
        assert node.shards_touched(ycsb.Op("scan", make_key(60), limit=5)) == (1, 2, 3)

    def test_flush_clears_pending_everywhere(self):
        node = make_node(shards=2)
        node._in_request = True
        for i in range(300):
            node.put(make_key(i % 100), b"z" * 64)
        node._in_request = False
        node.flush()
        assert not node._pending
        assert all(len(shard.db.memtable) == 0 for shard in node.shards)


def run_frontend(rate, *, shards=2, capacity=0, operations=150, arrival_seed=7):
    spec = ycsb.WORKLOAD_A.scaled(120, operations)
    node = make_node(shards=shards, key_space=120)
    ycsb.load_phase(node, spec)
    config = FrontendConfig(
        arrival_rate=rate, queue_capacity=capacity, arrival_seed=arrival_seed
    )
    return run_open_loop(node, spec, config), node


class TestOpenLoopFrontend:
    def test_latency_decomposes_into_wait_plus_service(self):
        result, _ = run_frontend(2000.0)
        assert result.completed == result.operations
        assert result.dropped == 0
        assert result.latency.count == result.completed
        assert result.queue_wait.count == result.completed
        # Means add up exactly: latency = queue_wait + service per op.
        assert result.latency.total == pytest.approx(
            result.queue_wait.total + result.service.total
        )

    def test_deterministic(self):
        a, _ = run_frontend(3000.0)
        b, _ = run_frontend(3000.0)
        assert a.outcome_digest == b.outcome_digest
        assert a.latency.summary() == b.latency.summary()
        assert a.elapsed_seconds == b.elapsed_seconds

    def test_arrival_seed_changes_timing_not_results(self):
        a, _ = run_frontend(3000.0, arrival_seed=1)
        b, _ = run_frontend(3000.0, arrival_seed=2)
        assert a.outcome_digest == b.outcome_digest  # same op stream, no drops
        assert a.latency.summary() != b.latency.summary()

    def test_queue_builds_at_high_rate(self):
        slow, _ = run_frontend(50_000.0)
        fast, _ = run_frontend(200.0)
        assert slow.queue_wait.mean > fast.queue_wait.mean
        assert slow.elapsed_seconds < fast.elapsed_seconds  # open loop: offered load sets the window

    def test_bounded_admission_drops_under_overload(self):
        unbounded, _ = run_frontend(100_000.0, capacity=0)
        bounded, _ = run_frontend(100_000.0, capacity=4)
        assert unbounded.dropped == 0
        assert bounded.dropped > 0
        assert bounded.completed + bounded.dropped == bounded.operations
        assert sum(bounded.dropped_counts.values()) == bounded.dropped
        # Dropping caps the queue: the survivors wait far less.
        assert bounded.queue_wait.mean < unbounded.queue_wait.mean

    def test_node_clock_advances_to_last_completion(self):
        result, node = run_frontend(2000.0)
        assert node.clock.now >= result.elapsed_seconds
        assert result.throughput > 0

    def test_rejects_nonpositive_rate(self):
        node = make_node()
        with pytest.raises(ValueError):
            run_open_loop(node, ycsb.WORKLOAD_C, FrontendConfig(arrival_rate=0.0))

    def test_single_store_server_adapter(self):
        from repro.mash.store import RocksMashStore

        spec = ycsb.WORKLOAD_C.scaled(100, 80)
        store = RocksMashStore.create(StoreConfig().small())
        ycsb.load_phase(store, spec)
        server = SingleStoreServer(store)
        assert server.num_shards == 1
        assert server.shards_touched(ycsb.Op("scan", b"a", limit=3)) == (0,)
        result = run_open_loop(server, spec, FrontendConfig(arrival_rate=1000.0))
        assert result.completed == 80
        assert result.store == "rocksmash"
