"""Property tests: no scan configuration ever changes scan results.

For any random workload — and any crash-free storm of transient cloud
read faults — scans must return exactly what a dict model says, at every
``scan_prefetch_depth``, bounded by begin/end/limit and
at a snapshot taken mid-stream; and tier attribution must still conserve
elapsed time on every span even when prefetch branches are joined late,
reaped, or abandoned.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.mash.placement import PlacementConfig
from repro.mash.pcache import PCacheConfig
from repro.mash.store import RocksMashStore, StoreConfig
from repro.obs.trace import span_conserved
from repro.sim.failure import FaultInjector

# The pipeline off, shallow and deep.
DEPTHS = (0, 1, 2, 4)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 60), st.binary(min_size=1, max_size=200)),
        st.tuples(st.just("delete"), st.integers(0, 60), st.just(b"")),
        st.tuples(st.just("flush"), st.just(0), st.just(b"")),
    ),
    min_size=5,
    max_size=80,
)

scans = st.lists(
    st.tuples(st.integers(0, 60), st.integers(1, 30)),
    min_size=1,
    max_size=6,
)


def key_of(i: int) -> bytes:
    return b"key%04d" % i


def build_store(depth: int, error_rate: float, seed: int) -> RocksMashStore:
    """Cloud-heavy small store; faults (if any) hit only read requests."""
    config = StoreConfig().small()
    config = replace(
        config,
        options=replace(config.options, scan_prefetch_depth=depth),
        placement=PlacementConfig(cloud_level=1),
        pcache=PCacheConfig(data_budget_bytes=4 << 10),
    )
    store = RocksMashStore.create(config)
    if error_rate > 0:
        store.cloud_store.faults = FaultInjector(
            error_rate=error_rate, seed=seed, op_prefixes=("cloud.get",)
        )
    return store


def model_scan(model, begin=None, end=None, limit=None):
    rows = sorted(
        (k, v)
        for k, v in model.items()
        if (begin is None or k >= begin) and (end is None or k < end)
    )
    return rows if limit is None else rows[:limit]


def check_workload(store: RocksMashStore, workload, scan_reqs) -> None:
    """Apply ``workload`` and check every scan shape against the model."""
    model = {}
    snapshot = frozen = None
    for step, (op, i, value) in enumerate(workload):
        if step == len(workload) // 2:
            snapshot, frozen = store.snapshot(), dict(model)
        if op == "put":
            store.put(key_of(i), value)
            model[key_of(i)] = value
        elif op == "delete":
            store.delete(key_of(i))
            model.pop(key_of(i), None)
        elif op == "flush":
            store.flush()
    assert store.scan() == model_scan(model)
    for start, span in scan_reqs:
        begin, end = key_of(start), key_of(start + span)
        for bounds in ((begin, end, None), (begin, None, 5), (None, end, 5)):
            assert store.scan(*bounds) == model_scan(model, *bounds), bounds
        # The engine-level scan at the mid-stream snapshot ignores
        # everything written after it.
        assert list(store.db.scan(begin, end, snapshot=snapshot)) == model_scan(
            frozen, begin, end
        )
    store.release_snapshot(snapshot)


@settings(max_examples=15, deadline=None)
@given(ops=ops, scan_reqs=scans, error=st.sampled_from((0.0, 0.02, 0.05)), seed=st.integers(0, 2**16))
def test_depths_agree_and_spans_conserve(ops, scan_reqs, error, seed):
    for depth in DEPTHS:
        store = build_store(depth, error, seed)
        check_workload(store, ops, scan_reqs)
        for span in store.tracer.spans:
            assert span_conserved(span), (
                f"depth={depth} span {span.op} leaks time:"
                f" tiers={span.tiers.as_dict()} elapsed={span.elapsed}"
            )
        # Speculation is bounded: every issued prefetch is consumed or
        # counted as waste, never silently dropped.
        issued = store.tracer.event_count("prefetch_issue")
        hits = store.tracer.event_count("prefetch_hit")
        waste = store.tracer.event_count("prefetch_waste")
        assert hits + waste == issued
        if depth == 0:
            assert issued == 0
