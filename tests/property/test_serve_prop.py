"""Property tests for the serving layer.

The headline property: a :class:`ShardedDB` over any shard count returns
byte-identical results to a single store executing the same op stream —
point reads, cross-shard scans (router-boundary begin keys included), and
the running outcome digest. Plus the reentrancy regression: spans recorded
under per-request clock scoping still satisfy the tier-conservation
invariant ``local + cloud + cpu == elapsed``.
"""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mash.pcache import PCacheConfig
from repro.mash.placement import PlacementConfig
from repro.mash.store import RocksMashStore, StoreConfig
from repro.obs.trace import span_conserved
from repro.serve import FrontendConfig, ServeConfig, ShardedDB, run_open_loop
from repro.sim.failure import FaultInjector
from repro.workloads import ycsb
from repro.workloads.generator import make_key

KEY_SPACE = 64

# Key indices biased toward router boundaries: with 2/4/8 shards over a
# 64-key space, boundaries sit at multiples of 8 — sample those (and their
# neighbours) heavily alongside the full range.
boundary_indices = st.one_of(
    st.sampled_from([idx + d for idx in range(8, KEY_SPACE, 8) for d in (-1, 0, 1)]),
    st.integers(0, KEY_SPACE + 8),  # a few past the keyspace too
)

serve_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), boundary_indices, st.binary(min_size=1, max_size=24)),
        st.tuples(st.just("del"), boundary_indices, st.just(b"")),
        st.tuples(st.just("get"), boundary_indices, st.just(b"")),
        st.tuples(st.just("scan"), boundary_indices, st.integers(1, 20)),
        st.tuples(st.just("scan_to"), boundary_indices, st.integers(1, 20)),
        st.tuples(st.just("flush"), st.just(0), st.just(b"")),
    ),
    max_size=60,
)


def apply(store, kind, idx, extra):
    if kind == "put":
        store.put(make_key(idx), extra)
        return None
    if kind == "del":
        store.delete(make_key(idx))
        return None
    if kind == "get":
        return store.get(make_key(idx))
    if kind == "scan":
        return store.scan(make_key(idx), None, limit=extra)
    if kind == "scan_to":
        return store.scan(None, make_key(idx), limit=extra)
    store.flush()
    return None


class TestShardedEquivalence:
    @given(serve_ops, st.sampled_from([2, 4, 8]))
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_sharded_matches_single_store(self, ops, shards):
        single = RocksMashStore.create(StoreConfig().small())
        node = ShardedDB.create(
            ServeConfig(
                base=StoreConfig().small(), num_shards=shards, key_space=KEY_SPACE
            )
        )
        for kind, idx, extra in ops:
            assert apply(single, kind, idx, extra) == apply(node, kind, idx, extra), (
                f"divergence at {kind} {idx}"
            )
        # Full-range and boundary-straddling scans agree at the end too.
        assert node.scan(None, None) == single.scan(None, None)
        for boundary in node.router.boundaries:
            assert node.scan(boundary, None, limit=5) == single.scan(
                boundary, None, limit=5
            )
            assert node.scan(None, boundary) == single.scan(None, boundary)
            assert node.scan(None, boundary, limit=5) == single.scan(None, boundary, limit=5)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]))
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_ycsb_digest_identical_sharded_vs_single(self, seed, shards):
        spec = ycsb.WORKLOAD_A.scaled(80, 60)

        def digest(store):
            ycsb.load_phase(store, spec)
            hasher = hashlib.sha256()
            for op in ycsb.iter_ops(spec, seed=seed):
                ycsb.outcome_digest_update(
                    hasher, op, ycsb.apply_op(store, op)
                )
            return hasher.hexdigest()

        single = RocksMashStore.create(StoreConfig().small())
        node = ShardedDB.create(
            ServeConfig(base=StoreConfig().small(), num_shards=shards, key_space=80)
        )
        assert digest(single) == digest(node)

    @given(serve_ops, st.sampled_from([2, 4]))
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_blob_separated_sharded_matches_single(self, ops, shards):
        """Sharding composes with key–value separation: each shard runs its
        own blob log namespaced under its ``db/sNN/`` prefix, GC rides the
        deferred-maintenance flush path, and results stay byte-identical to
        an unsharded blob-enabled store."""
        base = StoreConfig().small()
        base = replace(
            base,
            options=replace(
                base.options,
                blob_value_threshold=16,
                write_buffer_size=1 << 10,
            ),
        )
        single = RocksMashStore.create(base)
        node = ShardedDB.create(ServeConfig(base=base, num_shards=shards, key_space=KEY_SPACE))
        for kind, idx, extra in ops:
            assert apply(single, kind, idx, extra) == apply(node, kind, idx, extra), (
                f"divergence at {kind} {idx}"
            )
        assert node.scan(None, None) == single.scan(None, None)
        # Each shard's segments live under its own namespace — never a
        # sibling's, never the unsharded layout.
        for index, shard in enumerate(node.shards):
            prefix = f"db/s{index:02d}/"
            for name in shard.env.list_files(prefix):
                if name.endswith(".blob"):
                    assert name.startswith(prefix), name
        if any(kind == "put" and len(extra) >= 16 for kind, _idx, extra in ops):
            assert sum(
                shard.db.blob_store.stats()["records_diverted"]
                for shard in node.shards
            ) > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sharded_matches_single_store_under_cloud_read_faults(self, seed):
        """Cloud faults reach a node the way they reach one store: through an
        injector on ``node.cloud_store``, which every shard shares. The shards
        retry the failed reads, and every get and scan still answers what an
        unsharded, fault-free store answers."""
        base = replace(
            StoreConfig().small(),
            placement=PlacementConfig(cloud_level=1),
            pcache=PCacheConfig(data_budget_bytes=4 << 10),
        )
        keys = 200  # enough that reads miss the small caches and go to the cloud
        single = RocksMashStore.create(base)
        node = ShardedDB.create(ServeConfig(base=base, num_shards=2, key_space=keys))
        node.cloud_store.faults = FaultInjector(
            error_rate=0.1, seed=seed, op_prefixes=("cloud.get",)
        )
        for round_no in range(3):
            for idx in range(keys):
                value = b"%d-%d-" % (round_no, idx) + b"v" * 120
                apply(single, "put", idx, value)
                apply(node, "put", idx, value)
            single.flush()
            node.flush()
            for idx in range(0, keys + 8, 3):
                for kind, extra in (("get", b""), ("scan", 9), ("scan_to", 9)):
                    assert apply(node, kind, idx, extra) == apply(single, kind, idx, extra), (
                        f"divergence at {kind} {idx} in round {round_no}"
                    )
        assert node.scan(None, None) == single.scan(None, None)
        assert node.counters.get("cloud.retries") > 0

    def test_blob_gc_runs_through_deferred_maintenance(self):
        """With ``defer_maintenance`` on, blob GC happens when the deferred
        flush replays — dead segments are reclaimed without any direct
        compaction call, and the surviving hot keys keep resolving."""
        base = StoreConfig().small()
        base = replace(
            base,
            options=replace(
                base.options,
                blob_value_threshold=64,
                write_buffer_size=1 << 10,
            ),
        )
        node = ShardedDB.create(ServeConfig(base=base, num_shards=2, key_space=KEY_SPACE))
        live = {}
        for i in range(400):
            key = make_key(i % 16)
            value = f"v{i:04d}-".encode() + b"b" * 150
            live[key] = value
            node.put(key, value)
        assert any(span.op == "maintenance" for span in node.tracer.spans)
        deleted = sum(
            shard.db.blob_store.stats()["segments_deleted"] for shard in node.shards
        )
        assert deleted > 0, "deferred maintenance never GC'd a dead segment"
        for key, value in live.items():
            assert node.get(key) == value
        node.close()


class TestReentrantConservation:
    @given(st.integers(0, 2**32 - 1), st.floats(200.0, 20_000.0))
    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_spans_conserve_under_request_scoping(self, seed, rate):
        """Regression: per-request clock scoping (overlapping in-flight
        spans, fork/join fan-out inside request scopes, deferred
        maintenance replayed on request clocks) never breaks
        local + cloud + cpu == elapsed on any recorded span."""
        spec = ycsb.WORKLOAD_A.scaled(60, 50)
        node = ShardedDB.create(
            ServeConfig(base=StoreConfig().small(), num_shards=4, key_space=60)
        )
        ycsb.load_phase(node, spec)
        run_open_loop(
            node,
            spec,
            FrontendConfig(arrival_rate=rate, arrival_seed=seed, op_seed=seed),
        )
        assert len(node.tracer.spans) > 0
        for span in node.tracer.spans:
            assert span_conserved(span), (
                f"span {span.op} drifted: tiers={span.tiers.total()} "
                f"elapsed={span.elapsed}"
            )
        # Nothing leaked outside spans except possibly load-phase charges
        # (puts there run inside spans as well, so the tracer's totals are
        # fully attributed).
        assert node.tracer.unattributed.total() == 0.0
