"""Experiment harness: uniform store construction for the four systems.

Each experiment asks for stores by name with a handful of cross-cutting
knobs (cloud RTT, cache budgets, placement depth, WAL shards, layout mode).
All stores come up with the scaled-down engine options so experiments run
in seconds while preserving LSM shape (multiple levels, real compactions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import (
    CloudOnlyConfig,
    CloudOnlyStore,
    LocalOnlyConfig,
    LocalOnlyStore,
    RocksDBCloudConfig,
    RocksDBCloudStore,
)
from repro.lsm.options import Options
from repro.mash.layout import LayoutConfig
from repro.mash.pcache import PCacheConfig
from repro.mash.placement import PlacementConfig
from repro.mash.store import RocksMashStore, StoreConfig
from repro.mash.xwal import XWalConfig
from repro.facade import StoreFacade
from repro.sim.latency import LatencyModel

SYSTEMS = ("local-only", "cloud-only", "rocksdb-cloud", "rocksmash")

CLOUD_BANDWIDTH = 200e3
"""Bytes/s of the simulated cloud link. The engine runs with KB-scale files
instead of RocksDB's 64 MB files, so the bandwidth is scaled down in the
same proportion (≈200 KB/s instead of ~80 MB/s). This keeps the ratio of
whole-file transfer time to request RTT at real-deployment values
(downloading a table ≫ one ranged block GET), which is the ratio the
whole-file-vs-block-grain caching comparison depends on."""

BLOCK_SIZE = 512
"""Data-block size of every harness store: KB-scale files want sub-KB
blocks to keep several blocks per table."""


@dataclass(frozen=True)
class HarnessKnobs:
    """Cross-cutting parameters an experiment may sweep."""

    cloud_rtt: float = 15e-3
    block_cache_bytes: int = 32 << 10
    pcache_budget_bytes: int = 128 << 10
    file_cache_budget_bytes: int = 256 << 10
    """Sized so rocksdb-cloud's local resources ≈ RocksMash's local share
    (upper levels + persistent cache) — an equal-resource comparison."""
    cloud_level: int = 2
    local_bytes_budget: int | None = None
    layout_aware: bool = True
    prewarm_heat_threshold: float = 1.0
    xwal_shards: int = 4
    xwal_apply_cost: float = 2e-6
    write_buffer_size: int = 8 << 10
    scan_readahead_bytes: int = 128 << 10
    compression: str = "none"
    pin_metadata: bool = True
    max_subcompactions: int = 1
    """Parallel subcompactions per compaction (E18 sweeps 1/2/4/8)."""
    scan_prefetch_depth: int = 0
    """Outstanding speculative table prefetches per scan (E21 sweeps
    0/1/2/4 on rocksmash; no experiment sets it for another system)."""

    def cloud_model(self) -> LatencyModel:
        return LatencyModel(
            read_latency=self.cloud_rtt,
            write_latency=self.cloud_rtt,
            read_bandwidth=CLOUD_BANDWIDTH,
            write_bandwidth=CLOUD_BANDWIDTH,
        )


def engine_options(knobs: HarnessKnobs) -> Options:
    """Scaled-down engine options shared by every system."""
    return Options(
        write_buffer_size=knobs.write_buffer_size,
        block_size=BLOCK_SIZE,
        max_bytes_for_level_base=128 << 10,
        target_file_size_base=32 << 10,
        block_cache_bytes=knobs.block_cache_bytes,
        compression=knobs.compression,
        max_subcompactions=knobs.max_subcompactions,
        scan_prefetch_depth=knobs.scan_prefetch_depth,
    )


def rocksmash_config(knobs: HarnessKnobs | None = None) -> StoreConfig:
    """The RocksMash :class:`StoreConfig` the harness builds for the given
    knobs — exposed so the serving layer (:mod:`repro.serve`) can derive
    per-shard configs from the same experiment parameters."""
    knobs = knobs or HarnessKnobs()
    return StoreConfig(
        options=engine_options(knobs),
        cloud_model=knobs.cloud_model(),
        placement=PlacementConfig(
            cloud_level=knobs.cloud_level,
            local_bytes_budget=knobs.local_bytes_budget,
        ),
        pcache=PCacheConfig(data_budget_bytes=knobs.pcache_budget_bytes),
        layout=LayoutConfig(
            aware=knobs.layout_aware,
            prewarm_heat_threshold=knobs.prewarm_heat_threshold,
        ),
        xwal=XWalConfig(
            num_shards=knobs.xwal_shards,
            apply_cost_per_record=knobs.xwal_apply_cost,
        ),
        scan_readahead_bytes=knobs.scan_readahead_bytes,
    )


def make_store(system: str, knobs: HarnessKnobs | None = None) -> StoreFacade:
    """Build one of the four systems with the given knobs."""
    knobs = knobs or HarnessKnobs()
    options = engine_options(knobs)
    cloud_model = knobs.cloud_model()
    if system == "local-only":
        return LocalOnlyStore.create(LocalOnlyConfig(options=options))
    if system == "cloud-only":
        return CloudOnlyStore.create(
            CloudOnlyConfig(options=options, cloud_model=cloud_model)
        )
    if system == "rocksdb-cloud":
        return RocksDBCloudStore.create(
            RocksDBCloudConfig(
                options=options,
                cloud_model=cloud_model,
                file_cache_budget_bytes=knobs.file_cache_budget_bytes,
            )
        )
    if system == "rocksmash":
        store = RocksMashStore.create(rocksmash_config(knobs))
        if not knobs.pin_metadata:
            _disable_metadata_pinning(store)
        return store
    raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")


def _disable_metadata_pinning(store: RocksMashStore) -> None:
    """Ablation 12a: RocksMash without the pinned-metadata region."""
    store.pcache.put_meta = lambda *_a, **_k: None  # type: ignore[method-assign]
    store._pin_metadata = lambda *_a, **_k: None  # type: ignore[method-assign]

