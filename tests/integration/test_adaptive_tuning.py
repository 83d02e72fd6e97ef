"""End-to-end behaviour of the live tuning loop inside RocksMash.

The unit suite proves the controller's rules in isolation; these tests
prove the *wiring*: facade ops feed the controller, applied knobs actually
change engine behaviour (filters migrate at flush/compaction, prefetch
pipelines appear and disappear), bloom probe outcomes surface as tracer
events and ``metrics()``, and a tuned run is bit-for-bit reproducible.
"""

import hashlib
from dataclasses import replace

from repro.mash.store import RocksMashStore, StoreConfig
from repro.serve.sharded import ServeConfig, ShardedDB
from repro.tune import TuningConfig
from repro.workloads.generator import make_key
from repro.workloads.ycsb import (
    WORKLOAD_A,
    apply_op,
    iter_ops,
    outcome_digest_update,
)


def tuned_config(interval: int = 100) -> StoreConfig:
    return replace(StoreConfig().small(), tuning=TuningConfig(interval_ops=interval))


class TestBloomCounters:
    def test_probe_outcomes_counted_and_exported(self):
        store = RocksMashStore.create(StoreConfig().small())
        # Even keys only: the odd keys are absent but *inside* every
        # table's key range, so lookups reach the filters.
        for i in range(0, 400, 2):
            store.put(make_key(i), b"v" * 50, sync=False)
        store.flush()
        for i in range(0, 100, 2):
            assert store.get(make_key(i)) is not None
        checked_after_hits = store.db.bloom_stats["bloom_checked"]
        assert checked_after_hits > 0
        useful_before = store.db.bloom_stats["bloom_useful"]
        for i in range(1, 100, 2):  # absent keys: the filter must reject
            assert store.get(make_key(i)) is None
        assert store.db.bloom_stats["bloom_useful"] > useful_before
        # Exported through the tracer event stream and metrics().
        metrics = store.metrics()
        for outcome, count in store.db.bloom_stats.items():
            assert metrics[outcome] == metrics[f"event.{outcome}"] == count
        assert store.config.options.filter_allocation is None  # uniform bits

    def test_useful_rejects_save_cloud_gets(self):
        store = RocksMashStore.create(StoreConfig().small())
        for i in range(0, 1200, 2):
            store.put(make_key(i), b"v" * 60, sync=False)
        store.flush()
        store.compact_range()  # push tables down (and to the cloud tier)
        gets_before = store.counters.get("cloud.get_ops")
        useful_before = store.db.bloom_stats["bloom_useful"]
        for i in range(1, 400, 2):  # in-range misses
            assert store.get(make_key(i)) is None
        rejected = store.db.bloom_stats["bloom_useful"] - useful_before
        assert rejected > 0
        # A bloom reject answers without a data-block fetch: misses cost
        # far fewer GETs than one per (miss, table) pair.
        gets = store.counters.get("cloud.get_ops") - gets_before
        assert gets < rejected


class TestLiveKnobMigration:
    def test_filter_allocation_migrates_at_flush(self):
        store = RocksMashStore.create(tuned_config(interval=50))
        # Phase 1: point-read-free load — builds levels under uniform bits.
        for i in range(400):
            store.put(make_key(i), b"v" * 80, sync=False)
        store.flush()
        # Phase 2: pure point reads — the controller skews bits upward.
        for i in range(400):
            store.get(make_key(i % 400))
        alloc = store.config.options.filter_allocation
        assert alloc is not None
        # The point-read phase skews bits toward the upper levels.
        assert alloc.bits_for(0) > alloc.bits_for(2)
        # New tables built after the change carry the per-level policy
        # (the controller may keep refining as the mix shifts back to
        # writes — its knobs always report the live allocation).
        for i in range(400, 800):
            store.put(make_key(i), b"v" * 80, sync=False)
        store.flush()
        live = store.config.options.filter_allocation
        assert live is not None
        assert store.tuner.knobs()["filter_allocation"] == live.describe()

    def test_prefetch_pipeline_follows_live_depth(self):
        store = RocksMashStore.create(tuned_config())
        assert store.db.scan_pipeline_factory is not None
        store.config.options.scan_prefetch_depth = 0
        assert store.db.scan_pipeline_factory(None, None) is None
        store.config.options.scan_prefetch_depth = 2
        pipeline = store.db.scan_pipeline_factory(None, None)
        assert pipeline is not None and pipeline.depth == 2
        pipeline.finish()


class TestAdaptiveDeterminism:
    def _run(self):
        store = RocksMashStore.create(tuned_config(interval=200))
        spec = replace(
            WORKLOAD_A, record_count=300, operation_count=800, value_size=100
        )
        for i in range(spec.record_count):
            store.put(make_key(i), b"v" * spec.value_size, sync=False)
        hasher = hashlib.sha256()
        for op in iter_ops(spec, seed=7):
            outcome_digest_update(hasher, op, apply_op(store, op))
        return hasher.hexdigest(), store.tuner.trajectory_digest()

    def test_same_stream_same_outcome_and_trajectory(self):
        outcome_a, knobs_a = self._run()
        outcome_b, knobs_b = self._run()
        assert outcome_a == outcome_b
        assert knobs_a == knobs_b


class TestShardedTuning:
    def test_per_shard_controllers_without_prefetch(self):
        base = replace(StoreConfig().small(), tuning=TuningConfig(interval_ops=30))
        node = ShardedDB(ServeConfig(base=base, num_shards=2, key_space=400))
        for i in range(400):
            node.put(make_key(i), b"v" * 64)
        for i in range(400):
            node.get(make_key(i))
        # A cross-shard scan (both directions) after the tuners have run.
        assert len(node.scan(make_key(150), make_key(250))) == 100
        assert len(node.scan_reverse(make_key(150), make_key(250))) == 100
        for shard in node.shards:
            assert shard.tuner is not None
            assert shard.tuner.config.tune_prefetch_depth is False
            # Depth stays pinned at 0, so no shard ever builds a pipeline.
            assert shard.db.scan_pipeline_factory(None, None) is None
            assert shard.tuner.tracer is node.tracer
        assert node.tracer.event_count("seek_fanout") == 0
        assert node.tracer.event_count("prefetch_issue") == 0
        # Both shards saw traffic, so both controllers evaluated.
        assert all(shard.tuner.trajectory for shard in node.shards)
