"""Baseline: a rocksdb-cloud-style hybrid (the paper's main competitor).

Like rocksdb-cloud: WAL and MANIFEST stay local, every SSTable is an object
in the cloud, and reads are served through a **whole-file local cache** —
on first access to any block of a table, the entire table file is
downloaded to the local device (LRU over files, byte budget).

This is the design RocksMash's block-grain persistent cache is compared
against: whole-file caching wastes local capacity on cold blocks and pays a
full-file download on every cache fill, but once a file is cached all of
its metadata and data are local.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import partial

from repro.facade import StoreFacade
from repro.lsm.block_cache import BlockPath, BlockStack, SequentialStack
from repro.lsm.db import DB, DBListeners
from repro.lsm.format import BLOCK_TRAILER_SIZE, BlockHandle, unseal_block
from repro.lsm.options import Options
from repro.metrics.counters import CounterSet
from repro.sim.clock import SimClock, StopwatchRegion
from repro.sim.latency import LatencyModel, cloud_object_storage
from repro.storage.cloud import CloudObjectStore
from repro.storage.cost import CostModel
from repro.storage.env import CLOUD, LOCAL, CloudEnv, HybridEnv, LocalEnv, RandomAccessFile
from repro.storage.local import LocalDevice


@dataclass
class RocksDBCloudConfig:
    """Configuration for the rocksdb-cloud-like baseline."""

    options: Options = field(default_factory=Options)
    cloud_model: LatencyModel = field(default_factory=cloud_object_storage)
    cost_model: CostModel = field(default_factory=CostModel)
    db_prefix: str = "db/"
    file_cache_budget_bytes: int = 16 << 20
    """Byte budget of the whole-file local cache."""

    def small(self) -> "RocksDBCloudConfig":
        return replace(
            self,
            options=Options.small(),
            file_cache_budget_bytes=64 << 10,
        )


class WholeFileCache:
    """LRU cache of entire table files on the local device.

    A file is only *admitted* (downloaded in full) on its
    ``admit_threshold``-th access; colder accesses read through to the
    cloud block-by-block. This mirrors rocksdb-cloud's behaviour of not
    force-filling the file cache on one-off reads, and prevents a
    working set larger than the budget from degrading below direct cloud
    reads.
    """

    PREFIX = "filecache/"

    def __init__(
        self,
        device: LocalDevice,
        cloud: CloudObjectStore,
        budget_bytes: int,
        *,
        admit_threshold: int = 3,
    ) -> None:
        self.device = device
        self.cloud = cloud
        self.budget_bytes = budget_bytes
        self.admit_threshold = admit_threshold
        self._lru: OrderedDict[str, int] = OrderedDict()  # name -> bytes
        self._access_counts: dict[str, int] = {}
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self._recover()

    def _recover(self) -> None:
        """Re-index files that survived a restart."""
        for path in self.device.list_files(self.PREFIX):
            name = path[len(self.PREFIX) :]
            size = self.device.size(path)
            self._lru[name] = size
            self._used += size

    def _local_path(self, name: str) -> str:
        return self.PREFIX + name

    def ensure(self, name: str, size: int) -> bool:
        """Make sure ``name`` is cached locally; returns False if it cannot
        fit the budget (caller reads through to the cloud)."""
        if name in self._lru:
            self._lru.move_to_end(name)
            self.hits += 1
            return True
        self.misses += 1
        count = self._access_counts.get(name, 0) + 1
        self._access_counts[name] = count
        if count < self.admit_threshold:
            return False  # too cold to justify a whole-file download
        if size > self.budget_bytes:
            return False
        data = self.cloud.get(name)  # whole-object download
        while self._used + len(data) > self.budget_bytes and self._lru:
            victim, vbytes = self._lru.popitem(last=False)
            self.device.delete(self._local_path(victim))
            self._used -= vbytes
            # An evicted file must re-earn admission; without this reset a
            # working set larger than the budget thrashes with whole-file
            # downloads on every access.
            self._access_counts[victim] = 0
        self.device.write_file(self._local_path(name), data)
        self._lru[name] = len(data)
        self._used += len(data)
        self.fills += 1
        return True

    def contains(self, name: str) -> bool:
        """Presence check that does not affect admission counters."""
        return name in self._lru

    def local_copy(self, name: str) -> RandomAccessFile | None:
        """The cached copy of ``name`` as a file, or None when not cached;
        like :meth:`contains`, it leaves admission counters alone."""
        if name not in self._lru:
            return None
        return LocalEnv(self.device).new_random_access_file(self._local_path(name))

    def read(self, name: str, offset: int, length: int) -> bytes:
        return self.device.read(self._local_path(name), offset, length)

    def drop(self, name: str) -> None:
        self._access_counts.pop(name, None)
        size = self._lru.pop(name, None)
        if size is not None:
            self.device.delete(self._local_path(name))
            self._used -= size

    @property
    def used_bytes(self) -> int:
        return self._used


class FileCacheStack(BlockStack):
    """``dram → pcache → demand`` where the persistent cache is the
    whole-file cache: a table it holds serves every block from its local
    copy, and an access may download the table first (see
    :meth:`WholeFileCache.ensure`). A compaction's pass only reads."""

    __slots__ = ("cache", "_file_size")

    def __init__(
        self, name: str, file: RandomAccessFile, path: BlockPath, *, cache: WholeFileCache
    ) -> None:
        super().__init__(name, file, path)
        self.cache = cache
        self._file_size: int | None = None

    def fetch(self, handle: BlockHandle) -> bytes:
        if self._file_size is None:
            self._file_size = self.file.size()
        if self.cache.ensure(self.name, self._file_size):
            self.path.hits["pcache"] += 1
            self.path.event("pcache_hit")
            return self._cached(handle)
        return super().fetch(handle)

    def sequential(self, window: int) -> SequentialStack:
        # A compaction reads a table the cache holds from its local copy,
        # and never downloads one it is about to delete.
        file = self.cache.local_copy(self.name) or self.file
        return SequentialStack(self.name, file, self.path, window)

    def meta(self, handle: BlockHandle, kind: str) -> bytes:
        # Table-open metadata reads don't count toward admission (readers
        # retain index/filter in memory once opened).
        if self.cache.contains(self.name):
            return self._cached(handle)
        return self.read(handle)

    def _cached(self, handle: BlockHandle) -> bytes:
        raw = self.cache.read(self.name, handle.offset, handle.size + BLOCK_TRAILER_SIZE)
        return unseal_block(raw)


class RocksDBCloudStore(StoreFacade):
    """WAL/manifest local, SSTs in the cloud, whole-file local cache."""

    name = "rocksdb-cloud"

    def __init__(
        self,
        config: RocksDBCloudConfig,
        *,
        clock: SimClock,
        local_device: LocalDevice,
        cloud_store: CloudObjectStore,
        counters: CounterSet,
    ) -> None:
        self.config = config
        self.clock = clock
        self.local_device = local_device
        self.cloud_store = cloud_store
        self.counters = counters
        self.cost_model = config.cost_model
        self._init_facade()
        self.file_cache = WholeFileCache(
            local_device, cloud_store, config.file_cache_budget_bytes
        )
        env = HybridEnv(
            LocalEnv(local_device),
            CloudEnv(cloud_store),
            lambda name: CLOUD if name.endswith(".sst") else LOCAL,
        )
        self.env = env
        with StopwatchRegion(clock) as sw:
            self.db = DB.open(
                env,
                config.db_prefix,
                config.options,
                stack_factory=partial(FileCacheStack, cache=self.file_cache),
                listeners=DBListeners(on_table_delete=[self.file_cache.drop]),
            )
        self.last_recovery_seconds = sw.elapsed

    @classmethod
    def create(
        cls, config: RocksDBCloudConfig | None = None, *, clock: SimClock | None = None
    ) -> "RocksDBCloudStore":
        config = config or RocksDBCloudConfig()
        clock = clock or SimClock()
        counters = CounterSet()
        device = LocalDevice(clock, counters=counters)
        cloud = CloudObjectStore(clock, config.cloud_model, counters=counters)
        return cls(
            config, clock=clock, local_device=device, cloud_store=cloud, counters=counters
        )

    def reopen(self, *, crash: bool = False) -> "RocksDBCloudStore":
        if crash:
            self.local_device.crash()
        else:
            self.close()
        return type(self)(
            self.config,
            clock=self.clock,
            local_device=self.local_device,
            cloud_store=self.cloud_store,
            counters=self.counters,
        )
