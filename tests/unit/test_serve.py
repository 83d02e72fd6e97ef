"""Unit tests for the sharded serving layer (router, node, front-end)."""

from dataclasses import replace

import pytest

from repro.lsm.db import Snapshot
from repro.lsm.write_batch import WriteBatch
from repro.mash.store import RocksMashStore, StoreConfig
from repro.obs.trace import span_conserved
from repro.serve import (
    FrontendConfig,
    KeyRangeRouter,
    ServeConfig,
    ShardedDB,
    run_open_loop,
)
from repro.workloads import ycsb
from repro.workloads.generator import make_key


def make_node(shards=4, key_space=200, **kw):
    return ShardedDB.create(
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

    def test_single_shard_batch_applies_atomically(self):
        node = make_node()
        node.put(make_key(199), b"doomed")
        batch = WriteBatch()
        batch.put(make_key(160), b"one")
        batch.put(make_key(180), b"two")
        batch.delete(make_key(199))
        owner = node.shards[3].db
        sequence = owner.versions.last_sequence
        node.write(batch)
        # One commit through the owning shard's WAL: consecutive sequence
        # numbers, every op visible.
        assert owner.versions.last_sequence == sequence + 3
        assert node.get(make_key(160)) == b"one"
        assert node.get(make_key(180)) == b"two"
        assert node.get(make_key(199)) is None

    def test_cross_shard_batch_refused_before_any_shard_logs(self):
        node = make_node()
        node.put(make_key(1), b"kept")
        node.put(make_key(199), b"kept")
        before = [
            (shard.db.versions.last_sequence, shard.scan(None, None)) for shard in node.shards
        ]
        batch = WriteBatch()
        batch.put(make_key(1), b"one")
        batch.put(make_key(130), b"two")
        batch.delete(make_key(199))
        with pytest.raises(NotImplementedError):
            node.write(batch)
        after = [
            (shard.db.versions.last_sequence, shard.scan(None, None)) for shard in node.shards
        ]
        assert after == before

    def test_deferred_maintenance_runs_off_the_write_path(self):
        node = make_node(shards=2)
        spans = len(node.tracer.spans)
        # Fill shard 0's memtable past its 4 KiB small() budget with served
        # requests: the flush must NOT happen inside the put, but after the
        # response, on the request's timeline.
        for wrote in range(500):
            clock = node.clock.child()
            outcome, responded = node.serve(ycsb.Op("update", make_key(wrote % 100), b"x" * 64), clock)
            assert outcome is None
            if clock.now > responded:
                break
        served = list(node.tracer.spans)[spans:]
        maintenance = [span for span in served if span.op == "maintenance"]
        assert len(maintenance) == 1
        (span,) = maintenance
        # The put's span ended at the response; the flush ran after it, as
        # a root span of its own request scope.
        assert [s for s in served if s.op == "put"][-1].end == responded
        assert span.parent_id == 0 and span.start == responded and span.end == clock.now
        assert any(s.op == "flush" and s.parent_id == span.span_id for s in served)
        assert not node.db._pending
        # Flush really happened: the dirty shard's memtable was emptied.
        assert len(node.shards[0].db.memtable) == 0
        assert node.get(make_key(1)) is not None

    def test_inline_drain_outside_request_scope(self):
        node = make_node(shards=1, key_space=200)
        for i in range(300):
            node.put(make_key(i % 100), b"y" * 64)
        # Closed-loop drains keep pending empty without explicit calls.
        assert not node.db._pending
        assert any(span.op == "maintenance" for span in node.tracer.spans)

    def test_one_tracer_spans_all_shards(self):
        node = make_node()
        node.put(make_key(10), b"a")
        node.put(make_key(150), b"b")
        assert node.get(make_key(150)) == b"b"
        ops = [s.op for s in node.tracer.spans]
        assert "put" in ops and "get" in ops
        assert node.clock.tracer is node.tracer
        assert all(shard.tracer is node.tracer for shard in node.shards)

    def test_shard_scans_at_prefetch_depth_2_equal_depth_0(self):
        # Each shard runs the base config's prefetch schedule inside the
        # router's branch: the same rows as without it, and every span
        # still attributes exactly its elapsed time.
        results = {}
        for depth in (0, 2):
            base = StoreConfig().small()
            base = replace(
                base,
                options=replace(base.options, scan_prefetch_depth=depth),
                placement=replace(base.placement, cloud_level=1),
            )
            node = ShardedDB.create(ServeConfig(base=base, num_shards=2, key_space=400))
            for i in range(400):
                node.put(make_key(i), b"v" * 64)
            node.flush()
            results[depth] = [node.scan(make_key(i), limit=40) for i in range(0, 400, 37)]
            assert (node.tracer.event_count("prefetch_issue") > 0) == (depth > 0)
            assert all(span_conserved(span) for span in node.tracer.spans)
        assert results[2] == results[0]

    def test_shards_touched(self):
        node = make_node()
        assert node.shards_touched(ycsb.Op("read", make_key(60))) == (1,)
        assert node.shards_touched(ycsb.Op("scan", make_key(60), limit=5)) == (1, 2, 3)

    def test_flush_clears_pending_everywhere(self):
        node = make_node(shards=2)
        for i in range(300):
            node.serve(ycsb.Op("update", make_key(i % 100), b"z" * 64), node.clock.child())
        node.flush()
        assert not node.db._pending
        assert all(len(shard.db.memtable) == 0 for shard in node.shards)


def filled_node():
    """A 2-shard node (split at key 100) with flushed tables in both shards."""
    node = make_node(shards=2)
    for i in range(0, 200, 2):
        node.put(make_key(i), b"v%d" % i)
    node.flush()
    return node


class TestNodeOperatorSurface:
    """The facade's operator calls on a 2-shard node."""

    def test_metrics_sum_the_shards(self):
        node = filled_node()
        metrics = node.metrics()
        per_shard = [shard.db.metrics() for shard in node.shards]
        assert metrics["level.0.files"] == sum(m["level.0.files"] for m in per_shard) > 0
        assert metrics["flushes"] == sum(m["flushes"] for m in per_shard) >= 2
        assert metrics["local.sync_ops"] == node.counters.get("local.sync_ops")
        assert metrics["sim.local"] == node.tracer.totals.local

    def test_metrics_report_the_largest_shard_sequence(self):
        node = filled_node()  # 50 writes in each shard
        assert [shard.db.metrics()["last_sequence"] for shard in node.shards] == [50, 50]
        assert node.metrics()["last_sequence"] == 50
        node.put(make_key(151), b"v151")
        assert node.metrics()["last_sequence"] == 51

    def test_dump_metrics_renders_the_summed_gauges(self):
        node = filled_node()
        files = sum(shard.db.metrics()["level.0.files"] for shard in node.shards)
        text = node.dump_metrics()
        assert f"repro_level_0_files {files}\n" in text
        assert "repro_local_sync_ops_total" in text

    def test_snapshots_are_not_implemented(self):
        node = filled_node()
        with pytest.raises(NotImplementedError):
            node.snapshot()
        with pytest.raises(NotImplementedError):
            node.release_snapshot(Snapshot(0))

    def test_compact_range_compacts_only_the_touched_shards(self):
        node = filled_node()
        before = node.clock.now
        node.compact_range(make_key(0), make_key(50))
        low, high = (shard.db.versions.current for shard in node.shards)
        assert low.num_files(0) == 0 and low.total_bytes() > 0
        assert high.num_files(0) > 0
        assert node.clock.now > before
        assert any(span.op == "compact_range" for span in node.tracer.spans)
        assert node.get(make_key(10)) == b"v10" and node.get(make_key(150)) == b"v150"

    def test_explain_asks_the_owning_shard(self):
        node = filled_node()
        explanation = node.explain(make_key(150))
        assert explanation.value == b"v150"
        assert explanation.path[0] == ("memtable", "miss")
        assert node.tracer.spans[-1].op == "get"

    def test_explain_records_its_latency_on_the_node(self):
        node = filled_node()
        owner = node.shards[1]
        node.explain(make_key(150))
        assert node.read_latency.count == 1
        assert owner.read_latency.count == 0


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

    def test_drives_a_bare_store(self):
        spec = ycsb.WORKLOAD_C.scaled(100, 80)
        store = RocksMashStore.create(StoreConfig().small())
        ycsb.load_phase(store, spec)
        assert store.num_shards == 1
        assert store.shards_touched(ycsb.Op("scan", b"a", limit=3)) == (0,)
        result = run_open_loop(store, spec, FrontendConfig(arrival_rate=1000.0))
        assert result.completed == 80
        assert result.store == "rocksmash"
        assert result.shards == 1
        assert result.maintenance_seconds == 0.0
