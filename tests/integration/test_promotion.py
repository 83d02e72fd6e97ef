"""Integration tests for hot-file promotion (up-tiering)."""

import dataclasses

import pytest

from repro.mash import placement
from repro.mash.placement import PlacementConfig
from repro.mash.store import RocksMashStore, StoreConfig
from repro.storage.env import LOCAL


def promo_store(budget=96 << 10, enabled=True):
    config = dataclasses.replace(
        StoreConfig().small(),
        placement=PlacementConfig(
            cloud_level=1,  # everything below L0 demotes -> cloud-heavy
            local_bytes_budget=budget,
            promotion_enabled=enabled,
        ),
    )
    return RocksMashStore.create(config)


def fill(store, n=2500):
    for i in range(n):
        store.put(f"key{i:06d}".encode(), b"v" * 80)
    store.flush()


def hammer(store, lo, hi, rounds=30):
    """Concentrate reads on one key range to heat its file(s)."""
    for _ in range(rounds):
        for i in range(lo, hi, 3):
            store.get(f"key{i:06d}".encode())


class TestPromotion:
    def test_hot_file_promoted(self):
        store = promo_store()
        fill(store)
        assert store.placement.cloud_table_bytes() > 0
        hammer(store, 100, 200)
        # Promotion fires on the next topology change.
        store.put(b"trigger", b"flush")
        store.flush()
        assert store.placement.promotions > 0

    def test_promoted_file_is_local_and_readable(self):
        store = promo_store()
        fill(store)
        hammer(store, 100, 200)
        store.put(b"trigger", b"flush")
        store.flush()
        # Some table now local beyond what levels mandate; reads still correct.
        for i in range(100, 200, 7):
            assert store.get(f"key{i:06d}".encode()) == b"v" * 80
        local_tables = [
            name
            for name in store.env.list_files("db/")
            if name.endswith(".sst") and store.env.tier_of(name) == LOCAL
        ]
        assert local_tables

    def test_disabled_by_default(self):
        store = promo_store(enabled=False)
        fill(store)
        hammer(store, 100, 200)
        store.put(b"trigger", b"flush")
        store.flush()
        assert store.placement.promotions == 0

    def test_headroom_respected(self):
        store = promo_store(budget=96 << 10)
        fill(store)
        hammer(store, 0, 2500, rounds=3)  # heat everything
        store.put(b"trigger", b"flush")
        store.flush()
        budget = store.config.placement.local_bytes_budget
        assert store.placement.local_table_bytes() <= budget

    def test_cold_files_not_promoted(self, monkeypatch):
        monkeypatch.setattr(placement, "PROMOTION_HEAT_THRESHOLD", 1e9)  # unreachable
        store = promo_store()
        fill(store)
        hammer(store, 100, 200)
        store.put(b"trigger", b"flush")
        store.flush()
        assert store.placement.promotions == 0

    def test_promotion_requires_budget(self):
        with pytest.raises(ValueError):
            PlacementConfig(promotion_enabled=True)

    def test_promotion_speeds_up_hot_reads(self):
        from repro.mash.pcache import PCacheConfig

        def hot_read_time(enabled):
            store = promo_store(enabled=enabled)
            # Shrink the persistent cache below the hot set so tier
            # placement (not block caching) decides hot-read cost.
            store.config = dataclasses.replace(
                store.config, pcache=PCacheConfig(data_budget_bytes=2 << 10)
            )
            store.pcache.config = store.config.pcache
            fill(store)
            hammer(store, 100, 200, rounds=10)
            store.put(b"trigger", b"flush")
            store.flush()
            # Drop volatile caches so the tier placement dominates.
            cache = store.db.block_cache
            if cache is not None:
                for name in list(cache._offsets):
                    cache.evict_file(name)
            start = store.clock.now
            hammer(store, 100, 200, rounds=5)
            return store.clock.now - start

        with_promo = hot_read_time(True)
        without = hot_read_time(False)
        assert with_promo <= without
