"""RocksMash: the paper's contribution, assembled from four mechanisms.

* :mod:`repro.mash.placement` — hybrid local/cloud data placement.
* :mod:`repro.mash.pcache` — LSM-aware persistent cache (pinned metadata +
  popular data blocks) on the local device.
* :mod:`repro.mash.layout` — compaction-aware cache layouts (heat
  inheritance and pre-warming across compactions).
* :mod:`repro.mash.xwal` — sharded extended WAL with parallel recovery.
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
from repro.mash.xwal import XWalConfig, XWalReplayer, XWalWriter

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
    "XWalConfig",
    "XWalReplayer",
    "XWalWriter",
]
