"""RocksMash reproduction — an LSM-tree store integrating local storage with
cloud storage (Wan et al., CLUSTER 2021 / ACM TOS 2022).

The package is layered bottom-up:

* :mod:`repro.util` — encodings, internal-key order, checksums, bloom filters.
* :mod:`repro.sim` — simulated clock, latency models, fault injection.
* :mod:`repro.storage` — local device, cloud object store, Env, cost model.
* :mod:`repro.lsm` — a complete from-scratch LSM-tree engine (memtable,
  the sharded extended WAL with parallel recovery, SSTables, leveled
  compaction, versioned manifest, iterators).
* :mod:`repro.mash` — the paper's contribution: hybrid placement, the
  LSM-aware persistent cache with compaction-aware layouts, and the xWAL
  sharded four ways with large values diverted into it.
* :mod:`repro.baselines` — local-only, cloud-only, and rocksdb-cloud-like
  comparison systems.
* :mod:`repro.workloads` / :mod:`repro.bench` — YCSB & db_bench workload
  generators plus the experiment harness regenerating the paper's tables
  and figures.

Quickstart::

    from repro import RocksMashStore, StoreConfig

    store = RocksMashStore.create(StoreConfig())
    store.put(b"key", b"value")
    assert store.get(b"key") == b"value"
"""

from typing import Any

from repro.errors import (
    ClosedError,
    CorruptionError,
    InvalidArgumentError,
    IOErrorSim,
    NotFoundError,
    RecoveryError,
    ReproError,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedError",
    "CorruptionError",
    "IOErrorSim",
    "InvalidArgumentError",
    "NotFoundError",
    "RecoveryError",
    "ReproError",
    "__version__",
]


def __getattr__(name: str) -> Any:
    """Lazily re-export the high-level store types.

    Keeps ``import repro`` cheap while still allowing
    ``from repro import RocksMashStore``.
    """
    lazy = {
        "RocksMashStore": ("repro.mash.store", "RocksMashStore"),
        "StoreConfig": ("repro.mash.store", "StoreConfig"),
        "DB": ("repro.lsm.db", "DB"),
        "Options": ("repro.lsm.options", "Options"),
    }
    if name in lazy:
        import importlib

        module, attr = lazy[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
