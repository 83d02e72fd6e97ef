"""Every cloud upload is one PUT (ROADMAP item 1).

A sealed blob segment or a demoted table goes up as one whole-object PUT:
the object is visible whole or not at all, and it costs exactly one
request. These tests pin the request accounting, not just the resulting
bytes.
"""

from dataclasses import replace

from repro.mash.store import RocksMashStore, StoreConfig


def small_blob_config() -> StoreConfig:
    config = StoreConfig().small()
    return replace(
        config,
        options=replace(
            config.options,
            blob_value_threshold=64,
            blob_segment_bytes=1 << 10,
        ),
    )


class TestSmallSegmentSeal:
    def test_small_segment_seal_is_exactly_one_put(self):
        store = RocksMashStore.create(small_blob_config())
        puts_before = store.counters.get("cloud.put_ops")
        # Enough oversized values to roll (seal) at least one 1 KiB segment.
        for i in range(30):
            store.put(f"k{i:04d}".encode(), b"v" * 200, sync=True)
        stats = store.db.blob_store.stats()
        assert stats["segments_sealed"] > 0
        assert store.placement.demotions == 0
        # Nothing flushed, so the seals are the only uploads.
        assert store.counters.get("cloud.put_ops") - puts_before == stats["segments_sealed"]


class TestSmallTableDemotion:
    def test_demoted_small_tables_never_multipart(self):
        store = RocksMashStore.create(StoreConfig().small())
        for i in range(800):
            store.put(f"k{i:05d}".encode(), b"v" * 64, sync=False)
        store.flush()
        store.compact_range()
        demotions = store.placement.tier_summary()["demotions"]
        assert demotions > 0
        assert store.counters.get("cloud.put_ops") == demotions
