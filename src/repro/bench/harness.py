"""Experiment harness: uniform store construction for the four systems.

Each experiment asks for stores by name with the knobs every system shares
(the engine options, cloud RTT and the equal-resource cache budgets). A
sweep of a RocksMash mechanism (placement, layout, xWAL, readahead,
metadata pinning) sets that field on :func:`rocksmash_config`'s
:class:`StoreConfig` with ``dataclasses.replace`` and builds the store with
``RocksMashStore.create``. All stores come up with the scaled-down engine
options so experiments run in seconds while preserving LSM shape (multiple
levels, real compactions).
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
from repro.mash.store import RocksMashStore, StoreConfig
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
    """What sizes the cross-system comparison: the engine options and cloud
    RTT every system gets, and each system's cache budget."""

    cloud_rtt: float = 15e-3
    block_cache_bytes: int = 32 << 10
    pcache_budget_bytes: int = 128 << 10
    file_cache_budget_bytes: int = 256 << 10
    """Sized so rocksdb-cloud's local resources ≈ RocksMash's local share
    (upper levels + persistent cache) — an equal-resource comparison."""
    write_buffer_size: int = 8 << 10
    compression: str = "none"
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
    knobs: the base every mechanism sweep replaces fields of, and the one
    the serving layer (:mod:`repro.serve`) derives per-shard configs from.
    Placement, xWAL and readahead keep their defaults; blocks pre-warm at
    half the default heat threshold."""
    knobs = knobs or HarnessKnobs()
    return StoreConfig(
        options=engine_options(knobs),
        cloud_model=knobs.cloud_model(),
        pcache=PCacheConfig(data_budget_bytes=knobs.pcache_budget_bytes),
        layout=LayoutConfig(prewarm_heat_threshold=1.0),
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
        return RocksMashStore.create(rocksmash_config(knobs))
    raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")

