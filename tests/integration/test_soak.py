"""Kitchen-sink soak tests: every feature enabled at once, long op streams.

These runs combine compression, scan readahead, promotion, multi_get,
checkpoints, bounded scans, a range of deletes in one batch, crash cycles,
and the consistency checker against a single dict model — the
closest thing to a production burn-in the simulation allows.
"""

import dataclasses
import random

import pytest

from repro.lsm.check import check_db
from repro.lsm.options import Options
from repro.lsm.wal import XWalConfig
from repro.lsm.write_batch import WriteBatch
from repro.mash import placement
from repro.mash.checkpoint import create_checkpoint, restore_checkpoint
from repro.mash.layout import LayoutConfig
from repro.mash.pcache import PCacheConfig
from repro.mash.placement import PlacementConfig
from repro.mash.store import RocksMashStore, StoreConfig


def everything_on_config(style="leveled"):
    return StoreConfig(
        options=Options(
            write_buffer_size=4 << 10,
            block_size=512,
            max_bytes_for_level_base=16 << 10,
            target_file_size_base=(1 << 20) if style == "universal" else 4 << 10,
            block_cache_bytes=8 << 10,
            compression="zlib",
            compaction_style=style,
            max_manifest_file_size=8 << 10,
        ),
        placement=PlacementConfig(
            cloud_level=2,
            local_bytes_budget=64 << 10,
            promotion_enabled=True,
        ),
        pcache=PCacheConfig(data_budget_bytes=32 << 10),
        layout=LayoutConfig(aware=True, prewarm_heat_threshold=1.0),
        xwal=XWalConfig(num_shards=4),
    )


@pytest.mark.parametrize("style", ["leveled", "universal"])
def test_soak_all_features(style, monkeypatch):
    monkeypatch.setattr(placement, "PROMOTION_HEAT_THRESHOLD", 20.0)
    store = RocksMashStore.create(everything_on_config(style))
    rng = random.Random(20260705)
    model: dict[bytes, bytes] = {}
    keyspace = [f"key{i:05d}".encode() for i in range(600)]

    for step in range(6000):
        action = rng.random()
        key = rng.choice(keyspace)
        if action < 0.55:
            value = f"v{step}|".encode() + b"data" * rng.randint(0, 30)
            store.put(key, value)
            model[key] = value
        elif action < 0.70:
            store.delete(key)
            model.pop(key, None)
        elif action < 0.85:
            assert store.get(key) == model.get(key), (step, key)
        elif action < 0.90:
            batch = rng.sample(keyspace, 12)
            got = store.multi_get(batch)
            for k in batch:
                assert got[k] == model.get(k), (step, k)
        elif action < 0.95:
            lo = rng.choice(keyspace)
            got = store.scan(lo, None, limit=20)
            expected = sorted((k, v) for k, v in model.items() if k >= lo)[:20]
            assert got == expected, step
        else:
            hi = rng.choice(keyspace)
            got = store.scan(None, hi, limit=20)
            expected = sorted((k, v) for k, v in model.items() if k < hi)[:20]
            assert got == expected, step

        if step in (2000, 4500):
            store = store.reopen(crash=True)
        if step == 3000:
            # One big tombstone batch: every live key of a range, atomically.
            tombstones = WriteBatch()
            for k in [k for k in model if b"key00100" <= k < b"key00150"]:
                tombstones.delete(k)
                model.pop(k)
            store.write(tombstones)
        if step == 3500:
            create_checkpoint(store, f"soak-{style}")
            snapshot_model = dict(model)

    # Final full agreement.
    assert store.scan() == sorted(model.items())

    # The checkpoint replays the exact mid-run state.
    restored = restore_checkpoint(store.cloud_store, f"soak-{style}", store.config)
    assert dict(restored.scan()) == snapshot_model

    # Storage is structurally sound.
    store.close()
    report = check_db(store.env, "db/", store.config.options)
    assert report.ok, report.errors
