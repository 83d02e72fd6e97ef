"""Property test: tier attribution conserves elapsed time on every span.

For any sequence of store operations, each recorded span's tier vector
(local + cloud + cpu seconds) must sum to its stopwatch elapsed time —
including operations whose I/O runs through fork/join regions (multi_get
waves, xWAL shard syncs, parallel subcompactions, demotion batches) and,
with key–value separation drawn on, reads that resolve a blob pointer. The
store is drawn too: one store or a two-shard serving node (whose cross-shard
ops fork a branch per shard).
"""

from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

from repro.mash.store import RocksMashStore, StoreConfig
from repro.obs.trace import span_conserved
from repro.serve import ServeConfig, ShardedDB
from repro.workloads.generator import make_key

ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 40), st.binary(min_size=1, max_size=200)),
        st.tuples(st.just("get"), st.integers(0, 40), st.just(b"")),
        st.tuples(st.just("delete"), st.integers(0, 40), st.just(b"")),
        st.tuples(st.just("scan"), st.integers(0, 40), st.just(b"")),
        st.tuples(st.just("multi_get"), st.integers(0, 40), st.just(b"")),
        st.tuples(st.just("flush"), st.just(0), st.just(b"")),
    ),
    min_size=1,
    max_size=60,
)


key_of = make_key  # the keys a node's router splits: 0-24 on shard 0, 25- on shard 1


# Threshold 1, not a realistic 64: every value then goes through the blob
# log, so any read of a key the example wrote resolves a pointer. 25 drawn
# op lists are mostly short and seldom read back their own writes, so one
# pinned example does it on every run: from the active local segment, then
# (after the flush seals it) from the cloud, then from the pcache.
@settings(max_examples=25, deadline=None)
@given(
    ops=ops,
    blob_value_threshold=st.sampled_from([0, 1]),
    shards=st.sampled_from([1, 2]),
)
@example(
    ops=[
        ("put", 0, b"v"),
        ("get", 0, b""),
        ("flush", 0, b""),
        ("get", 0, b""),
        ("get", 0, b""),
        ("scan", 0, b""),
        ("multi_get", 0, b""),
    ],
    blob_value_threshold=1,
    shards=1,
)
@example(  # a node-wide flush runs one flush per shard, each inside a branch
    ops=[("put", 0, b"v"), ("put", 30, b"v"), ("flush", 0, b""), ("scan", 20, b"")],
    blob_value_threshold=0,
    shards=2,
)
def test_all_spans_conserved(ops, blob_value_threshold, shards):
    config = StoreConfig().small()
    config = replace(
        config, options=replace(config.options, blob_value_threshold=blob_value_threshold)
    )
    if shards == 1:
        store = RocksMashStore.create(config)
    else:
        store = ShardedDB(ServeConfig(base=config, num_shards=shards, key_space=50))
    for op, i, value in ops:
        if op == "put":
            store.put(key_of(i), value)
        elif op == "get":
            store.get(key_of(i))
        elif op == "delete":
            store.delete(key_of(i))
        elif op == "scan":
            store.scan(key_of(i), key_of(i + 10))
        elif op == "multi_get":
            store.multi_get([key_of(i + j) for j in range(6)])
        elif op == "flush":
            store.flush()
    assert len(store.tracer.spans) >= len(ops)
    for span in store.tracer.spans:
        assert span_conserved(span), (
            f"span {span.op} leaks time: tiers={span.tiers.as_dict()}"
            f" elapsed={span.elapsed}"
        )
    # Device-busy totals never exceed what was charged somewhere.
    totals = store.tracer.totals
    assert totals.local >= 0 and totals.cloud >= 0 and totals.cpu >= 0
