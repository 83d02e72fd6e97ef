"""Property tests: WAL-time key–value separation never changes results.

A blob-separated store must be observably equivalent to a non-separated
baseline over any random op stream whose values straddle the threshold —
including overwrites, deletes followed by compaction (which drives
segment GC), and a storm of transient cloud read faults. A YCSB
execution must produce the identical outcome digest on both stores.
"""

import hashlib
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.mash.store import RocksMashStore, StoreConfig
from repro.sim.failure import FaultInjector
from repro.workloads.ycsb import (
    WORKLOAD_A,
    WORKLOAD_F,
    apply_op,
    iter_ops,
    load_phase,
    outcome_digest_update,
)

KEY_SPACE = 40
THRESHOLDS = (48, 64)

ops = st.lists(
    st.one_of(
        # Values 0..96 B straddle both thresholds.
        st.tuples(
            st.just("put"),
            st.integers(0, KEY_SPACE - 1),
            st.binary(min_size=0, max_size=96),
        ),
        st.tuples(st.just("delete"), st.integers(0, KEY_SPACE - 1), st.just(b"")),
        st.tuples(st.just("flush"), st.just(0), st.just(b"")),
        st.tuples(st.just("compact"), st.just(0), st.just(b"")),
    ),
    min_size=10,
    max_size=100,
)


def key_of(i: int) -> bytes:
    return b"key%04d" % i


def build_store(threshold: int, *, error: float = 0.0, seed: int = 0) -> RocksMashStore:
    """Small store; ``threshold=0`` disables separation (the baseline), and
    ``error > 0`` fails that share of cloud reads (retried internally). A
    1 KiB write buffer flushes, and seals a segment, every few puts."""
    config = StoreConfig().small()
    config = replace(
        config,
        options=replace(
            config.options, blob_value_threshold=threshold, write_buffer_size=1 << 10
        ),
    )
    store = RocksMashStore.create(config)
    if error > 0:
        store.cloud_store.faults = FaultInjector(
            error_rate=error, seed=seed, op_prefixes=("cloud.get",)
        )
    return store


def observe(store: RocksMashStore, workload) -> tuple:
    """Apply the ops, then collect every observable surface of the store."""
    for op, i, value in workload:
        if op == "put":
            store.put(key_of(i), value)
        elif op == "delete":
            store.delete(key_of(i))
        elif op == "flush":
            store.flush()
        elif op == "compact":
            store.compact_range()
    gets = [store.get(key_of(i)) for i in range(KEY_SPACE)]
    ranged = store.scan(key_of(KEY_SPACE // 4), key_of(3 * KEY_SPACE // 4))
    return gets, store.scan(), ranged


@settings(max_examples=20, deadline=None)
@given(ops=ops)
def test_separated_store_equivalent_to_baseline(ops):
    baseline = observe(build_store(0), ops)
    for threshold in THRESHOLDS:
        store = build_store(threshold)
        assert observe(store, ops) == baseline, f"threshold={threshold}"
        store.close()


@settings(max_examples=10, deadline=None)
@given(ops=ops, seed=st.integers(0, 2**16))
def test_equivalence_survives_cloud_fault_storm(ops, seed):
    """Transient cloud read faults (retried internally) must not change
    what a separated store returns — pointers resolve to the same bytes."""
    baseline = observe(build_store(0), ops)
    store = build_store(48, error=0.05, seed=seed)
    assert observe(store, ops) == baseline
    store.close()


@settings(max_examples=5, deadline=None)
@given(ops=ops)
def test_equivalence_survives_clean_reopen(ops):
    """Separation plus a restart: recovery seals the logged values without
    changing a single observable byte."""
    store = build_store(48)
    baseline = observe(build_store(0), ops)
    assert observe(store, ops) == baseline
    store = store.reopen()
    gets = [store.get(key_of(i)) for i in range(KEY_SPACE)]
    ranged = store.scan(key_of(KEY_SPACE // 4), key_of(3 * KEY_SPACE // 4))
    assert (gets, store.scan(), ranged) == baseline
    store.close()


def ycsb_digest(store: RocksMashStore, spec, *, seed: int = 7) -> str:
    load_phase(store, spec)
    hasher = hashlib.sha256()
    for op in iter_ops(spec, seed=seed):
        outcome_digest_update(hasher, op, apply_op(store, op))
    return hasher.hexdigest()


def test_ycsb_outcome_digest_identical():
    """A real workload mix (reads, updates, scans, RMWs) hashes to the
    same outcome digest with and without separation."""
    for workload in (WORKLOAD_A, WORKLOAD_F):
        spec = replace(workload, value_size=200).scaled(120, 150)
        baseline = ycsb_digest(build_store(0), spec)
        separated_store = build_store(48)
        separated = ycsb_digest(separated_store, spec)
        assert separated == baseline, spec.name
        stats = separated_store.db.blob_store.stats()
        assert stats["records_diverted"] > 0, "workload never hit the blob log"
