"""RocksMash: the paper's contribution, assembled from four mechanisms.

* :mod:`repro.mash.placement` — hybrid local/cloud data placement.
* :mod:`repro.mash.pcache` — LSM-aware persistent cache (pinned metadata +
  popular data blocks) on the local device.
* :mod:`repro.mash.layout` — compaction-aware cache layouts (heat
  inheritance and pre-warming across compactions).
* the sharded extended WAL with parallel recovery — the engine's one log
  (:mod:`repro.lsm.wal`), which every store runs; RocksMash shards it four
  ways (:attr:`StoreConfig.xwal`), and :mod:`repro.mash.bloblog` lets it
  take large values (WAL-time key-value separation).
* :mod:`repro.mash.store` — :class:`RocksMashStore`, the public facade.
"""

from repro.mash.checkpoint import (
    CheckpointInfo,
    create_checkpoint,
    delete_checkpoint,
    list_checkpoints,
    restore_checkpoint,
)
from repro.mash.layout import BlockHeatTracker, LayoutConfig
from repro.mash.pcache import PCacheConfig, PersistentCache
from repro.mash.placement import PlacementConfig, PlacementManager
from repro.mash.store import MashDB, RocksMashStore, StoreConfig

__all__ = [
    "BlockHeatTracker",
    "CheckpointInfo",
    "create_checkpoint",
    "delete_checkpoint",
    "list_checkpoints",
    "restore_checkpoint",
    "LayoutConfig",
    "MashDB",
    "PCacheConfig",
    "PersistentCache",
    "PlacementConfig",
    "PlacementManager",
    "RocksMashStore",
    "StoreConfig",
]
