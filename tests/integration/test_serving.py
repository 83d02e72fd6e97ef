"""End-to-end serving-layer integration: open-loop load against sharded
and unsharded RocksMash nodes built from the experiment harness config."""

from repro.bench.harness import HarnessKnobs, make_store, rocksmash_config
from repro.obs.trace import span_conserved
from repro.serve import (
    FrontendConfig,
    ServeConfig,
    ShardedDB,
    SingleStoreServer,
    run_open_loop,
)
from repro.workloads import ycsb

RECORDS = 600
OPERATIONS = 400
KNOBS = HarnessKnobs(cloud_level=1, block_cache_bytes=0, pcache_budget_bytes=4 << 10)


def sharded_node(shards):
    return ShardedDB(
        ServeConfig(base=rocksmash_config(KNOBS), num_shards=shards, key_space=RECORDS)
    )


def serve(server, workload="B", rate=500.0, capacity=0, operations=OPERATIONS):
    spec = ycsb.ALL_WORKLOADS[workload].scaled(RECORDS, operations)
    ycsb.load_phase(server if isinstance(server, ShardedDB) else server.store, spec)
    return run_open_loop(
        server, spec, FrontendConfig(arrival_rate=rate, queue_capacity=capacity)
    )


class TestShardedReads:
    def test_scan_with_limit_zero_reads_nothing(self):
        node = sharded_node(4)
        ycsb.load_phase(node, ycsb.ALL_WORKLOADS["B"].scaled(RECORDS, 1))
        io = [node.counters.get(name) for name in ("cloud.get_ops", "local.read_ops")]
        assert node.scan(None, None, 0) == []  # every shard touched, none read
        assert node.scan(ycsb.make_key(5), ycsb.make_key(6), 0) == []
        assert [node.counters.get(name) for name in ("cloud.get_ops", "local.read_ops")] == io
        assert len(node.scan(None, None, 3)) == 3
        assert node.counters.get("local.read_ops") > io[1]

    def test_block_path_events_reach_the_node_tracer(self):
        """The shards are built with private tracers and repointed at the
        node's; the block path has to follow, or its events are lost."""
        node = sharded_node(2)
        ycsb.load_phase(node, ycsb.ALL_WORKLOADS["B"].scaled(RECORDS, 1))
        before = dict(node.tracer.event_counts)
        for index in range(0, RECORDS, 7):
            assert node.get(ycsb.make_key(index)) is not None
        grown = {k for k, v in node.tracer.event_counts.items() if v > before.get(k, 0)}
        assert "bloom_checked" in grown
        assert grown & {"cloud_get", "pcache_hit", "readahead_hit"}
        served = sum(sum(shard.db.block_path.hits.values()) for shard in node.shards)
        assert served > 0


class TestServingEndToEnd:
    def test_sharded_and_single_agree_under_load(self):
        sharded = serve(sharded_node(4))
        single = serve(SingleStoreServer(make_store("rocksmash", KNOBS)))
        assert sharded.dropped == single.dropped == 0
        assert sharded.outcome_digest == single.outcome_digest
        assert sharded.completed == single.completed == OPERATIONS

    def test_more_shards_cut_the_tail_at_equal_offered_load(self):
        one = serve(sharded_node(1), workload="C", rate=120.0)
        eight = serve(sharded_node(8), workload="C", rate=120.0)
        assert one.outcome_digest == eight.outcome_digest
        assert eight.latency.percentile(99) < one.latency.percentile(99)
        assert eight.queue_wait.mean < one.queue_wait.mean

    def test_open_loop_knee_on_one_shard(self):
        # Below the knee the tail is near service time; far past it,
        # queue wait dominates by orders of magnitude.
        calm = serve(sharded_node(1), workload="C", rate=20.0)
        slammed = serve(sharded_node(1), workload="C", rate=2000.0)
        assert calm.queue_wait.percentile(99) < calm.service.percentile(99) * 20
        assert slammed.queue_wait.percentile(99) > calm.latency.percentile(99) * 10
        assert slammed.latency.percentile(99.9) >= slammed.latency.percentile(99)

    def test_deferred_maintenance_moves_flushes_off_the_latency_path(self):
        # Same write-heavy stream: the deferring node charges flush and
        # compaction to the busy timeline (maintenance_seconds > 0), so its
        # slowest *service* time stays well below the inline node's, whose
        # victim writes pay for whole flush+compaction cascades in-op.
        deferring = serve(sharded_node(1), workload="A", rate=30.0)
        inline_store = make_store("rocksmash", KNOBS)
        inline = serve(SingleStoreServer(inline_store), workload="A", rate=30.0)
        assert deferring.maintenance_seconds > 0
        assert inline.maintenance_seconds == 0  # inline: maintenance is in op latency
        assert deferring.service.max_seen < inline.service.max_seen
        assert deferring.outcome_digest == inline.outcome_digest

    def test_conservation_and_attribution_under_concurrency(self):
        node = sharded_node(4)
        result = serve(node, workload="A", rate=800.0)
        assert result.completed == OPERATIONS
        assert all(span_conserved(s) for s in node.tracer.spans)
        assert node.tracer.unattributed.total() == 0.0
        assert node.tracer.totals.total() > 0
        assert node.tracer.totals.local > 0

    def test_admission_control_bounds_waiting(self):
        unbounded = serve(sharded_node(2), workload="C", rate=5000.0)
        bounded = serve(sharded_node(2), workload="C", rate=5000.0, capacity=16)
        assert unbounded.dropped == 0 and bounded.dropped > 0
        assert bounded.queue_wait.max_seen < unbounded.queue_wait.max_seen

    def test_closed_loop_runner_drives_sharded_node_unchanged(self):
        # Facade parity: run_phase treats a ShardedDB like any store.
        spec = ycsb.WORKLOAD_B.scaled(RECORDS, 200)
        node = sharded_node(4)
        ycsb.load_phase(node, spec)
        result = ycsb.run_phase(node, spec, seed=17)
        assert result.store == "rocksmash-x4"
        assert sum(result.op_counts.values()) == 200
        assert result.throughput > 0
