"""RocksMash: the assembled hybrid store (the paper's system).

Composition (each piece is a separately tested module):

* :class:`MashDB` — the LSM engine with the WAL swapped for the sharded
  extended WAL (:mod:`repro.mash.xwal`);
* :class:`~repro.mash.placement.PlacementManager` — upper levels + all
  logs/manifests local, lower levels demoted to the cloud;
* :class:`~repro.mash.pcache.PersistentCache` — pinned metadata of
  cloud-resident tables plus popular data blocks, on the local device;
* :class:`~repro.mash.layout.BlockHeatTracker` — compaction-aware layouts:
  output blocks inherit input heat and are pre-warmed into the persistent
  cache *before* demotion, so compactions do not empty the cache.

Block path of a table (:class:`MashBlockStack`)::

    DRAM block cache → persistent cache → primed scan buffer → scan buffer
    → demand read (a cloud ranged GET, or a local read)

A point get's miss reads its one block. A scan's miss on a cloud table reads
through the scan's own buffer of it
(:class:`~repro.lsm.block_cache.ScanBuffer`), one ranged GET sized by the
scan's ``limit`` and ``end``, which the scan's prefetch schedule
(:class:`~repro.lsm.block_cache.ScanReads`) may have issued ahead of it.

Use :meth:`RocksMashStore.create` for a fresh deployment and
:meth:`RocksMashStore.reopen` to simulate a restart (optionally after a
crash) over the same simulated devices.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any

from repro.lsm.block_cache import BlockPath, BlockStack, ScanBuffer, SequentialStack
from repro.lsm.compaction import CompactionEvent
from repro.lsm.db import DB, DBListeners, FlushEvent, Snapshot, WalWriter
from repro.lsm.format import (
    BLOCK_TRAILER_SIZE,
    FOOTER_SIZE,
    BlockHandle,
    Footer,
    table_file_name,
    unseal_block,
)
from repro.lsm.options import Options
from repro.facade import StoreFacade
from repro.mash.layout import BlockHeatTracker, LayoutConfig
from repro.mash.pcache import PCacheConfig, PersistentCache
from repro.mash.placement import PlacementConfig, PlacementManager, make_router
from repro.mash.xwal import XWalConfig, XWalReplayer, XWalWriter
from repro.metrics.counters import CounterSet
from repro.obs.trace import Tracer
from repro.sim.clock import ForkJoinRegion, SimClock, StopwatchRegion
from repro.sim.latency import LatencyModel, cloud_object_storage
from repro.storage.cloud import CloudObjectStore
from repro.storage.cost import CostModel
from repro.storage.env import CloudEnv, HybridEnv, LocalEnv, RandomAccessFile
from repro.storage.local import LocalDevice

if TYPE_CHECKING:
    from repro.mash.bloblog import BlobLog

MULTI_GET_WAVE = 8
"""Keys per :meth:`RocksMashStore.multi_get` wave: their cloud fetches run
concurrently, and the wave joins on the slowest."""


@dataclass
class StoreConfig:
    """Everything needed to stand up a RocksMash deployment."""

    options: Options = field(default_factory=Options)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    pcache: PCacheConfig = field(default_factory=PCacheConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    xwal: XWalConfig = field(default_factory=XWalConfig)
    cloud_model: LatencyModel = field(default_factory=cloud_object_storage)
    cost_model: CostModel = field(default_factory=CostModel)
    db_prefix: str = "db/"
    local_capacity_bytes: int | None = None
    scan_readahead_bytes: int = 128 << 10
    """The longest ranged read a scan's miss on a cloud-resident table
    issues, or its prefetch schedule primes
    (:class:`~repro.lsm.block_cache.ScanBuffer`); 0: scans read cloud
    tables block by block. Point gets never read ahead."""

    def small(self) -> "StoreConfig":
        """Scaled-down engine thresholds for tests and quick experiments."""
        return replace(
            self,
            options=Options.small(),
            pcache=replace(self.pcache, data_budget_bytes=64 << 10),
        )


class MashDB(DB):
    """DB with the extended WAL plugged into the WAL strategy hooks."""

    def __init__(
        self,
        *args,
        xwal_config: XWalConfig,
        local_device: LocalDevice,
        placement_config: PlacementConfig | None = None,
        blob_pcache: PersistentCache | None = None,
        **kw: Any,
    ) -> None:
        self._xwal_config = xwal_config
        self._local_device = local_device
        self._placement_config = placement_config
        self._blob_pcache = blob_pcache
        super().__init__(*args, **kw)

    def _open_blob_store(self) -> BlobLog | None:
        if self.options.blob_value_threshold <= 0:
            return None
        # Late import: bloblog imports lsm modules this module also pulls in.
        from repro.mash.bloblog import BlobLog

        part_bytes = (
            self._placement_config.multipart_part_bytes
            if self._placement_config is not None
            else PlacementConfig().multipart_part_bytes
        )
        return BlobLog(
            self.env,
            self.prefix,
            self.versions,
            self.options,
            self._local_device,
            part_bytes=part_bytes,
            pcache=self._blob_pcache,
        )

    def _open_wal(self, number: int) -> WalWriter:
        return XWalWriter(
            self.env, self._local_device, self.prefix, number, self._xwal_config
        )

    def _replayer(self) -> XWalReplayer:
        return XWalReplayer(self.env, self._local_device, self.prefix, self._xwal_config)

    def _wal_file_names(self, number: int) -> list[str]:
        return self._replayer().shard_file_names(number)

    def _replay_wal(self, number: int) -> tuple[int, int]:
        replayer = self._replayer()
        max_seq = 0
        applied = 0
        for seq, value_type, key, value in replayer.replay(number):
            self.memtable.add(seq, value_type, key, value)
            max_seq = max(max_seq, seq)
            applied += 1
        self.last_recovery_corrupt_shards = replayer.corrupt_shards
        return max_seq, applied

    _WAL_KIND = "xlog"


class MashBlockStack(BlockStack):
    """``dram → pcache → primed → readahead → demand`` for one table.

    Per-block side effects are ordered, and simulated figures hang on the
    order: heat is recorded before the persistent-cache lookup (a pcache hit
    still heats the block); and a block is admitted to the persistent cache
    only when its own miss read it from the cloud — the rest of a range read
    with it is not (scan-resistant caching). A point get's miss is one
    block's demand read. A scan's miss on a cloud-resident table is served
    from the scan's buffer of the table (``primed`` when the scan's prefetch
    schedule filled it, ``readahead`` when an earlier miss of the scan did)
    or fills it with one ranged GET (:meth:`scan_fetch`). The tier is looked
    up per miss, not per stack: a table can be demoted under a reader a live
    iterator still holds.

    A compaction's pass (:meth:`sequential`) skips every source but heats
    each block it reads: heat inheritance and pre-warm are planned from it.
    """

    __slots__ = ("store",)

    def __init__(
        self, name: str, file: RandomAccessFile, path: BlockPath, *, store: RocksMashStore
    ) -> None:
        super().__init__(name, file, path)
        self.store = store

    def fetch(self, handle: BlockHandle) -> bytes:
        store = self.store
        store.heat.record_access(self.name, handle.offset)
        payload = self._pcache(handle)
        if payload is None:
            payload = self._demand(handle, store.env.is_cloud(self.name))
        return payload

    def scan_fetch(self, handle: BlockHandle, scan: ScanBuffer) -> bytes:
        store = self.store
        store.heat.record_access(self.name, handle.offset)
        payload = self._pcache(handle)
        if payload is None:
            cloud = store.env.is_cloud(self.name)
            window = store.config.scan_readahead_bytes
            if not cloud or window <= 0:
                return self._demand(handle, cloud)
            payload = scan.get(handle)
            if payload is None:
                # The scan's miss: one GET of what the scan can still need,
                # counted and admitted as this block's demand read.
                return self._demand(handle, cloud, scan.fill(handle, window))
            self.path.hits["primed" if scan.primed else "readahead"] += 1
            self.path.event("readahead_hit")
        return payload

    def _pcache(self, handle: BlockHandle) -> bytes | None:
        payload = self.store.pcache.get_data(self.name, handle.offset)
        if payload is not None:
            self.path.hits["pcache"] += 1
            self.path.event("pcache_hit")
        return payload

    def scan_window(self) -> int:
        store = self.store
        return store.config.scan_readahead_bytes if store.env.is_cloud(self.name) else 0

    def _demand(self, handle: BlockHandle, cloud: bool, payload: bytes | None = None) -> bytes:
        """The demand read of ``handle``'s block, or ``payload`` when a
        scan's ranged read has just fetched the block."""
        if payload is None:
            payload = self.read(handle)
        self.path.hits["demand"] += 1
        if cloud:
            self.path.event("cloud_get")
            self.store.pcache.put_data(self.name, handle.offset, payload)
        else:
            self.path.event("local_read")
        return payload

    def sequential(self, window: int) -> SequentialStack:
        return SequentialStack(
            self.name, self.file, self.path, window, on_block=self.store.heat.record_access
        )

    def footer(self) -> bytes | None:
        # Lets a cold table open skip the footer read entirely — for a
        # cloud-resident table that is one fewer round trip.
        cached = self.store.pcache.get_meta(self.name, "footer")
        if cached is not None:
            self.path.event("pcache_footer_hit")
        return cached

    def meta(self, handle: BlockHandle, kind: str) -> bytes:
        store = self.store
        cached = store.pcache.get_meta(self.name, kind)
        if cached is not None:
            self.path.event("pcache_meta_hit")
            return cached
        payload = self.read(handle)
        if store.env.is_cloud(self.name):
            self.path.event("cloud_get")
            store.pcache.put_meta(self.name, kind, payload)
        else:
            self.path.event("local_read")
        return payload


class RocksMashStore(StoreFacade):
    """Public facade over the assembled system."""

    name = "rocksmash"

    def __init__(
        self,
        config: StoreConfig,
        *,
        clock: SimClock,
        local_device: LocalDevice,
        cloud_store: CloudObjectStore,
        counters: CounterSet,
        tracer: Tracer | None = None,
        maintenance_hook: Callable[[], None] | None = None,
    ) -> None:
        """Internal wiring — use :meth:`create` / :meth:`reopen`. ``tracer``
        is the node's when the store is one shard of a serving node, and
        ``maintenance_hook`` the node's deferral of write-triggered
        maintenance (``DB(maintenance_hook=)``)."""
        self.config = config
        self.clock = clock
        self.local_device = local_device
        self.cloud_store = cloud_store
        self.counters = counters
        self.cost_model = config.cost_model
        self.env = HybridEnv(
            LocalEnv(local_device), CloudEnv(cloud_store), make_router(config.db_prefix)
        )
        self.pcache = PersistentCache.open(local_device, config.pcache)
        self.heat = BlockHeatTracker(config.layout)
        self._init_facade(tracer)

        with StopwatchRegion(clock) as sw, self.tracer.span("recovery"):
            self.db = MashDB.open(
                self.env,
                config.db_prefix,
                config.options,
                stack_factory=partial(MashBlockStack, store=self),
                event_sink=self.tracer.event,
                maintenance_hook=maintenance_hook,
                # Event order matters: the heat tracker must see compaction
                # outputs (and pre-warm from their still-local files) before
                # placement, which appends its hooks later, demotes them.
                listeners=DBListeners(
                    on_flush=[self._on_flush],
                    on_compaction=[self._on_compaction],
                    on_table_delete=[self._on_table_delete],
                ),
                xwal_config=config.xwal,
                local_device=local_device,
                placement_config=config.placement,
                blob_pcache=self.pcache,
            )
            # Recovery's purge may have unpinned orphaned tables, whose file
            # numbers were never committed and will be handed out again: a
            # crash must not bring their pinned footer and index back.
            self.pcache.sync()
        self.last_recovery_seconds = sw.elapsed

        self.placement = PlacementManager(
            self.db, self.env, config.placement, before_demote=self._before_demote
        )

        if config.placement.promotion_enabled:
            # Re-evaluate up-tiering whenever the file topology changes;
            # heat accumulated since the last change drives the decision.
            def _maybe_promote() -> None:
                promoted = self.placement.maybe_promote(self.heat.file_heat)
                for _ in range(promoted or 0):
                    self.tracer.event("promotion")

            self.db.listeners.on_version_change.append(_maybe_promote)

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, config: StoreConfig | None = None, *, clock: SimClock | None = None) -> "RocksMashStore":
        """Stand up a fresh deployment on fresh simulated devices.

        Nothing here issues a cloud request, so transient cloud faults are
        injected by attaching an injector afterwards:
        ``store.cloud_store.faults = FaultInjector(...)``.
        """
        config = config or StoreConfig()
        clock = clock or SimClock()
        counters = CounterSet()
        local_device = LocalDevice(
            clock, capacity_bytes=config.local_capacity_bytes, counters=counters
        )
        cloud = CloudObjectStore(clock, config.cloud_model, counters=counters)
        return cls(
            config,
            clock=clock,
            local_device=local_device,
            cloud_store=cloud,
            counters=counters,
        )

    def reopen(
        self, *, crash: bool = False, torn_tail_seed: int | None = None
    ) -> "RocksMashStore":
        """Simulate a restart over the same devices.

        ``crash=True`` drops unsynced local state (power failure) and
        abandons incomplete cloud multipart uploads; otherwise the store is
        closed cleanly. ``torn_tail_seed`` (with ``crash=True``) keeps a
        seeded-random byte prefix of each unsynced tail instead of dropping
        it whole — half-written log records the recovery path must treat as
        absent. Returns the new instance — the old one must not be used
        afterwards. ``last_recovery_seconds`` on the result reports the
        simulated recovery time.
        """
        if crash:
            if torn_tail_seed is not None:
                import random

                self.local_device.crash(
                    torn_tail=True, rng=random.Random(torn_tail_seed)
                )
            else:
                self.local_device.crash()
            self.cloud_store.crash()
        else:
            self.close()
        return type(self)(
            self.config,
            clock=self.clock,
            local_device=self.local_device,
            cloud_store=self.cloud_store,
            counters=self.counters,
        )

    def close(self) -> None:
        self.pcache.close()
        self.db.close()

    # -- batched reads with modelled parallel cloud fetches --------------------

    def multi_get(
        self, keys: list[bytes], *, snapshot: Snapshot | None = None
    ) -> dict[bytes, bytes | None]:
        """Batched point lookups with concurrent cloud fetches.

        Keys are served in waves of :data:`MULTI_GET_WAVE`; within a
        wave each key's I/O is charged to a forked child clock and the
        wave joins on the slowest key — modelling the parallel ranged GETs
        a real implementation issues (cache lookups and updates still
        happen, so warm keys cost nothing extra).
        """
        if len(keys) <= 1:
            return super().multi_get(keys, snapshot=snapshot)
        results: dict[bytes, bytes | None] = {}
        with self.tracer.span("multi_get") as span:
            for start in range(0, len(keys), MULTI_GET_WAVE):
                wave = keys[start : start + MULTI_GET_WAVE]
                region = ForkJoinRegion(
                    self.op_clock, [self.local_device, self.cloud_store]
                )
                for key in wave:
                    with region.branch():
                        results[key] = self.db.get(key, snapshot=snapshot)
                region.join()
        self.read_latency.record(span.elapsed)
        return results

    # -- event handlers -----------------------------------------------------------

    def _on_flush(self, event: FlushEvent) -> None:
        name = table_file_name(self.config.db_prefix, event.meta.number)
        self.heat.register_file(name, event.properties.blocks)
        self.tracer.event("memtable_flush")

    def _on_compaction(self, event: CompactionEvent) -> None:
        self.tracer.event("compaction")
        if event.trivial_move:
            return
        name_of = lambda number: table_file_name(self.config.db_prefix, number)
        for output in event.outputs:
            self.heat.register_file(name_of(output.meta.number), output.properties.blocks)
        plan = self.heat.plan_inheritance(event, name_of)
        for out_name, block, _heat in plan:
            payload = self._read_local_block(out_name, block.handle)
            if payload is not None:
                self.pcache.put_data(out_name, block.handle.offset, payload)
                self.heat.prewarmed_blocks += 1
            # Pre-warmed blocks imply the table will be demoted; pin its
            # metadata eagerly too (idempotent).
        if event.output_level >= self.config.placement.cloud_level:
            for output in event.outputs:
                self._pin_metadata(name_of(output.meta.number))

    def _read_local_block(self, file_name: str, handle: BlockHandle) -> bytes | None:
        if not self.env.file_exists(file_name):
            return None
        file = self.env.new_random_access_file(file_name)
        raw = file.read(handle.offset, handle.size + BLOCK_TRAILER_SIZE)
        if len(raw) != handle.size + BLOCK_TRAILER_SIZE:
            return None
        return unseal_block(raw, verify=False)

    def _before_demote(self, number: int) -> None:
        # Pinned from the cheap local copy, which the demotion then drops.
        self._pin_metadata(table_file_name(self.config.db_prefix, number))

    def _pin_metadata(self, file_name: str) -> None:
        """Pin a table's footer + index + filter blocks from its (local) copy."""
        if not self.env.file_exists(file_name):
            return
        if (
            self.pcache.get_meta(file_name, "index") is not None
            and self.pcache.get_meta(file_name, "filter") is not None
            and self.pcache.get_meta(file_name, "footer") is not None
        ):
            return
        file = self.env.new_random_access_file(file_name)
        size = file.size()
        footer_raw = file.read(size - FOOTER_SIZE, FOOTER_SIZE)
        footer = Footer.decode(footer_raw)
        # The raw footer is pinned verbatim so a cold open can skip the
        # footer round trip against the cloud copy entirely.
        self.pcache.put_meta(file_name, "footer", footer_raw)
        for kind, handle in (("index", footer.index_handle), ("filter", footer.filter_handle)):
            raw = file.read(handle.offset, handle.size + BLOCK_TRAILER_SIZE)
            self.pcache.put_meta(file_name, kind, unseal_block(raw, verify=False))

    def _on_table_delete(self, file_name: str) -> None:
        self.pcache.drop_file(file_name)
        self.heat.forget_file(file_name)

    # -- reporting -----------------------------------------------------------------

    def metrics(self) -> dict[str, int | float]:
        """:meth:`StoreFacade.metrics` plus the persistent cache
        (``pcache.<PCacheStats field>``, ``pcache.meta_bytes`` /
        ``data_bytes``), ``demotions`` and ``prewarmed_blocks``."""
        out = super().metrics()
        out.update({f"pcache.{name}": n for name, n in asdict(self.pcache.stats).items()})
        out["pcache.meta_bytes"] = self.pcache.meta_bytes
        out["pcache.data_bytes"] = self.pcache.data_bytes
        out["demotions"] = self.placement.demotions
        out["prewarmed_blocks"] = self.heat.prewarmed_blocks
        return out
