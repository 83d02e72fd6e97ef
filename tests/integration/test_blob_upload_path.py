"""Every cloud upload is one PUT (ROADMAP item 1).

A sealed blob segment or a demoted table goes up as one whole-object PUT:
the object is visible whole or not at all, and it costs exactly one
request. These tests pin the request accounting, not just the resulting
bytes.
"""

from dataclasses import replace

from repro.lsm.wal import shard_of
from repro.mash.store import RocksMashStore, StoreConfig


def small_blob_config() -> StoreConfig:
    config = StoreConfig().small()
    return replace(
        config,
        options=replace(config.options, write_buffer_size=1 << 20, blob_value_threshold=64),
    )


class TestSmallSegmentSeal:
    def test_small_segment_seal_is_exactly_one_put(self):
        """A flushed generation seals as one object, however many of the
        xWAL's shard files its values fall in."""
        store = RocksMashStore.create(small_blob_config())
        keys = [f"k{i:04d}".encode() for i in range(30)]
        shards = store.config.xwal.num_shards
        assert {shard_of(key, shards) for key in keys} == set(range(shards))
        for key in keys:
            store.put(key, b"v" * 200, sync=True)
        puts_before = store.counters.get("cloud.put_ops")
        store.flush()
        stats = store.db.blob_store.stats()
        assert stats["segments_sealed"] == 1
        assert store.placement.demotions == 0
        # The seal is the flush's only upload, and it carries all four
        # shard files.
        assert store.counters.get("cloud.put_ops") - puts_before == 1
        (number,) = store.db.versions.blob_segments
        assert len(store.db.versions.blob_shards[number]) == shards
        assert all(store.db.versions.blob_shards[number])


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
