"""A compaction fetches its inputs concurrently before it merges.

Each input is read in one pass (one ranged read per 2 MiB), and every pass's
first read is issued before the merge starts, spread over the client's
request slots, instead of one after another as the merge's heap pulls each
input's first entry. Into the cloud levels that is one GET round trip per
input; here an L1 -> L2 compaction reads a dozen cloud tables. The requests
are the same ones in the same order; only the simulated clock sees them
overlap.
"""

import dataclasses

import pytest

from repro.bench.harness import HarnessKnobs
from repro.errors import IOErrorSim
from repro.lsm.check import check_db
from repro.lsm.compaction import Compaction
from repro.lsm.format import table_file_name
from repro.mash.store import RocksMashStore, StoreConfig
from repro.obs.trace import span_conserved
from repro.sim.failure import FaultInjector
from repro.storage.env import CLOUD

KEYS = 4000


def key(i):
    return b"user%06d" % i


def build_store():
    """A dozen 32 KiB tables on L2 (in the cloud) under one local L1 table
    that spans them all; nothing compacts unless the test asks."""
    config = StoreConfig().small()
    options = dataclasses.replace(
        config.options,
        write_buffer_size=1 << 20,
        target_file_size_base=32 << 10,
        level0_file_num_compaction_trigger=1000,
        max_bytes_for_level_base=64 << 20,
    )
    # The experiments' cloud link: a 32 KiB table takes ~11x the round trip.
    cloud_model = HarnessKnobs().cloud_model()
    store = RocksMashStore.create(
        dataclasses.replace(config, options=options, cloud_model=cloud_model)
    )
    db = store.db
    for i in range(KEYS):
        store.put(key(i), b"old-%06d" % i * 10, sync=False)
    store.flush()
    for level in (0, 1):  # settle the first pass on L2, cut at the target size
        files = list(db.versions.current.files[level])
        db._run_compaction(Compaction(level, files, [], 1.0, force_rewrite=True))
    for i in range(0, KEYS, 50):
        store.put(key(i), b"new-%06d" % i * 10, sync=False)
    store.flush()
    db._run_compaction(Compaction(0, list(db.versions.current.files[0]), [], 1.0))
    return store


def l1_to_l2(store):
    version = store.db.versions.current
    inputs = list(version.files[1])
    lo = min(meta.smallest_user_key for meta in inputs)
    hi = max(meta.largest_user_key for meta in inputs)
    return Compaction(1, inputs, version.overlapping_files(2, lo, hi), 1.0)


def cloud_inputs(store, compaction):
    name_of = lambda meta: table_file_name(store.config.db_prefix, meta.number)
    metas = compaction.inputs + compaction.overlaps
    return [meta for meta in metas if store.env.tier_of(name_of(meta)) == CLOUD]


def test_inputs_are_fetched_once_each_and_concurrently():
    store = build_store()
    compaction = l1_to_l2(store)
    cloud = cloud_inputs(store, compaction)
    assert len(cloud) >= 8
    counters, stats = store.counters, store.db.compaction_stats
    gets, get_bytes = counters.get("cloud.get_ops"), counters.get("cloud.get_bytes")
    fetches = stats.coalesced_fetches

    with store.tracer.span("compaction") as span:
        store.db._run_compaction(compaction)

    # One ranged read per input, a whole table each: nothing more, nothing less.
    assert counters.get("cloud.get_ops") - gets == len(cloud)
    assert counters.get("cloud.get_bytes") - get_bytes == sum(meta.file_size for meta in cloud)
    inputs = len(compaction.inputs) + len(compaction.overlaps)
    assert stats.coalesced_fetches - fetches == inputs
    # The whole compaction (merge, writes, uploads) takes less simulated
    # time than its cloud reads would one after another.
    serial = sum(store.cloud_store.model.read_cost(meta.file_size) for meta in cloud)
    assert span.elapsed < serial, (span.elapsed, serial)
    assert span_conserved(span)


def test_a_failed_input_fetch_raises_and_leaves_the_store_as_it_was():
    store = build_store()
    compaction = l1_to_l2(store)
    victim = table_file_name(store.config.db_prefix, cloud_inputs(store, compaction)[3].number)
    files_before = [[meta.number for meta in level] for level in store.db.versions.current.files]
    store.cloud_store.faults = FaultInjector(
        op_prefixes=(f"cloud.get_range({victim}",),
        fail_next=["injected"] * store.cloud_store.retry.max_attempts,
    )

    with pytest.raises(IOErrorSim):
        store.compact_range(None, None)

    assert store.local_device.clock is store.clock
    assert store.cloud_store.clock is store.clock
    assert [[meta.number for meta in level] for level in store.db.versions.current.files] == (
        files_before
    )
    store.cloud_store.faults = None
    store.compact_range(None, None)
    assert store.get(key(50)) == b"new-%06d" % 50 * 10
    assert store.get(key(51)) == b"old-%06d" % 51 * 10
    report = check_db(store.env, store.config.db_prefix, store.config.options)
    assert report.ok, report.summary()
