"""Bloom probe outcomes inside RocksMash: counted, exported, and worth GETs.

Every probe outcome surfaces in ``DB.bloom_stats``, as a tracer event and
in ``metrics()`` with one value, and an in-range miss the filter rejects
answers without a data-block fetch.
"""

from repro.mash.store import RocksMashStore, StoreConfig
from repro.workloads.generator import make_key


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
