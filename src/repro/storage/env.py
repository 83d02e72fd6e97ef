"""Filesystem abstraction (``Env``) over local and cloud backends.

The LSM engine is written against :class:`Env` — the same role RocksDB's
``Env``/``FileSystem`` plays — so the *identical* engine runs on a local
device, on a cloud object store, or on the hybrid that RocksMash needs:

* :class:`LocalEnv` — files on a :class:`~repro.storage.local.LocalDevice`;
  ``sync`` is an fsync (durable on return).
* :class:`CloudEnv` — files are objects on a
  :class:`~repro.storage.cloud.CloudObjectStore`. Objects are immutable, so
  an appendable file's ``sync`` re-PUTs the whole accumulated buffer:
  durability is preserved but every WAL sync re-uploads the entire log —
  quadratic traffic. This honest cost model is what the paper's argument
  for keeping the WAL/metadata local rests on.
* :class:`HybridEnv` — routes each file to a tier at creation time via a
  placement function, remembers where files live, and can migrate them.
  This is the substrate for RocksMash and the rocksdb-cloud-like baseline.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable

from repro.errors import ClosedError, NotFoundError
from repro.sim.clock import ClockCharged, SimClock
from repro.storage.cloud import CloudObjectStore
from repro.storage.local import LocalDevice

LOCAL = "local"
CLOUD = "cloud"


class WritableFile(ABC):
    """Append-only output file."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.closed = False

    def _check_open(self) -> None:
        if self.closed:
            raise ClosedError(f"writable file closed: {self.name}")

    @abstractmethod
    def append(self, data: bytes) -> None: ...

    @abstractmethod
    def sync(self) -> None:
        """Push buffered bytes toward durability (see class docs for tier
        differences)."""

    @abstractmethod
    def close(self) -> None: ...


class RandomAccessFile(ABC):
    """Immutable positional-read file."""

    def __init__(self, name: str) -> None:
        self.name = name

    @abstractmethod
    def read(self, offset: int, length: int) -> bytes: ...

    @abstractmethod
    def size(self) -> int: ...


class Env(ABC):
    """Namespace + file factory for one storage tier (or a hybrid)."""

    @abstractmethod
    def new_writable_file(self, name: str) -> WritableFile: ...

    @abstractmethod
    def new_random_access_file(self, name: str) -> RandomAccessFile: ...

    @abstractmethod
    def read_file(self, name: str) -> bytes: ...

    @abstractmethod
    def write_file(self, name: str, data: bytes) -> None:
        """Atomic whole-file create-or-replace (used for CURRENT)."""

    @abstractmethod
    def delete_file(self, name: str) -> None: ...

    @abstractmethod
    def rename_file(self, old: str, new: str) -> None: ...

    @abstractmethod
    def file_exists(self, name: str) -> bool: ...

    @abstractmethod
    def file_size(self, name: str) -> int: ...

    @abstractmethod
    def list_files(self, prefix: str = "") -> list[str]: ...

    def clock_hosts(self) -> list[ClockCharged]:
        """The clock-charged backends behind this Env (device/object store).

        Fork/join sites (parallel compaction, batched reads) discover where
        simulated time is charged through this hook; every host supports
        ``clock_scope`` (see :class:`repro.sim.clock.ClockCharged`) and all
        hosts of one Env share a single parent :class:`SimClock`. An Env
        with no simulated backends returns ``[]`` and callers fall back to
        serial accounting.
        """
        return []

    def sim_clock(self) -> SimClock | None:
        """The shared parent clock, or None for an un-clocked Env."""
        hosts = self.clock_hosts()
        return hosts[0].clock if hosts else None

    def is_cloud(self, name: str) -> bool:
        """Does ``name`` live in the cloud? Asked without any I/O, and a
        file on no tier does not."""
        return False


# --------------------------------------------------------------------------
# Local tier
# --------------------------------------------------------------------------


class _LocalWritableFile(WritableFile):
    def __init__(self, device: LocalDevice, name: str) -> None:
        super().__init__(name)
        self._device = device
        device.create(name)

    def append(self, data: bytes) -> None:
        self._check_open()
        self._device.append(self.name, data)

    def sync(self) -> None:
        self._check_open()
        self._device.sync(self.name)

    def close(self) -> None:
        if not self.closed:
            self._device.sync(self.name)
            self.closed = True


class _LocalRandomAccessFile(RandomAccessFile):
    def __init__(self, device: LocalDevice, name: str) -> None:
        super().__init__(name)
        self._device = device
        if not device.exists(name):
            raise NotFoundError(f"local file not found: {name}")

    def read(self, offset: int, length: int) -> bytes:
        return self._device.read(self.name, offset, length)

    def size(self) -> int:
        return self._device.size(self.name)


class LocalEnv(Env):
    """Env over a :class:`LocalDevice`."""

    def __init__(self, device: LocalDevice) -> None:
        self.device = device

    def new_writable_file(self, name: str) -> WritableFile:
        return _LocalWritableFile(self.device, name)

    def new_random_access_file(self, name: str) -> RandomAccessFile:
        return _LocalRandomAccessFile(self.device, name)

    def read_file(self, name: str) -> bytes:
        return self.device.read(name)

    def write_file(self, name: str, data: bytes) -> None:
        self.device.write_file(name, data)

    def delete_file(self, name: str) -> None:
        self.device.delete(name)

    def rename_file(self, old: str, new: str) -> None:
        self.device.rename(old, new)

    def file_exists(self, name: str) -> bool:
        return self.device.exists(name)

    def file_size(self, name: str) -> int:
        return self.device.size(name)

    def list_files(self, prefix: str = "") -> list[str]:
        return self.device.list_files(prefix)

    def clock_hosts(self) -> list[ClockCharged]:
        return [self.device]


# --------------------------------------------------------------------------
# Cloud tier
# --------------------------------------------------------------------------


class _CloudWritableFile(WritableFile):
    """An appendable file emulated on an immutable object store.

    Objects cannot be appended to, so ``sync`` re-PUTs the **entire**
    accumulated buffer. That makes synced bytes durable and visible (no
    durability gap), at the honest price of quadratic upload traffic — the
    real reason running a WAL directly on object storage is impractical,
    and exactly the cost the cloud-only baseline pays in the benchmarks.
    """

    def __init__(self, store: CloudObjectStore, name: str) -> None:
        super().__init__(name)
        self._store = store
        self._buffer = bytearray()
        self._dirty = False

    def append(self, data: bytes) -> None:
        self._check_open()
        self._buffer += data
        self._dirty = True

    def sync(self) -> None:
        self._check_open()
        if self._dirty:
            self._store.put(self.name, bytes(self._buffer))
            self._dirty = False

    def close(self) -> None:
        if self.closed:
            return
        if self._dirty or not self._store.exists(self.name):
            self._store.put(self.name, bytes(self._buffer))
            self._dirty = False
        self.closed = True


class _CloudRandomAccessFile(RandomAccessFile):
    def __init__(self, store: CloudObjectStore, name: str) -> None:
        super().__init__(name)
        self._store = store
        if not store.exists(name):
            raise NotFoundError(f"cloud object not found: {name}")
        # HEAD is deferred until the size is actually needed: ranged GETs do
        # not require it, and real deployments know SST sizes from the
        # manifest — a reader whose footer is served from the pinned
        # metadata cache never pays this round trip.
        self._size: int | None = None

    def read(self, offset: int, length: int) -> bytes:
        return self._store.get_range(self.name, offset, length)

    def size(self) -> int:
        if self._size is None:
            self._size = self._store.head(self.name)  # one HEAD, then cached
        return self._size


class CloudEnv(Env):
    """Env over a :class:`CloudObjectStore`."""

    def __init__(self, store: CloudObjectStore) -> None:
        self.store = store

    def new_writable_file(self, name: str) -> WritableFile:
        return _CloudWritableFile(self.store, name)

    def new_random_access_file(self, name: str) -> RandomAccessFile:
        return _CloudRandomAccessFile(self.store, name)

    def read_file(self, name: str) -> bytes:
        return self.store.get(name)

    def write_file(self, name: str, data: bytes) -> None:
        self.store.put(name, data)

    def delete_file(self, name: str) -> None:
        if not self.store.exists(name):
            raise NotFoundError(f"cloud object not found: {name}")
        self.store.delete(name)

    def rename_file(self, old: str, new: str) -> None:
        # Objects cannot be renamed: server-side copy then delete.
        self.store.copy(old, new)
        self.store.delete(old)

    def file_exists(self, name: str) -> bool:
        return self.store.exists(name)

    def file_size(self, name: str) -> int:
        return self.store.head(name)

    def list_files(self, prefix: str = "") -> list[str]:
        return self.store.list_keys(prefix)

    def clock_hosts(self) -> list[ClockCharged]:
        return [self.store]

    def is_cloud(self, name: str) -> bool:
        return self.store.exists(name)


# --------------------------------------------------------------------------
# Hybrid tier
# --------------------------------------------------------------------------

Router = Callable[[str], str]


class HybridEnv(Env):
    """Routes files between a local and a cloud Env.

    New files go to the tier chosen by ``router(name)`` (``"local"`` or
    ``"cloud"``). Lookups consult a registry, falling back to probing both
    tiers (so a freshly recovered process can rediscover files). Files can
    be migrated between tiers, which is how RocksMash demotes cold SSTables.
    """

    def __init__(self, local: LocalEnv, cloud: CloudEnv, router: Router) -> None:
        self.local = local
        self.cloud = cloud
        self.router = router
        self._registry: dict[str, str] = {}

    # -- tier resolution -----------------------------------------------------

    def tier_of(self, name: str) -> str:
        """Which tier ``name`` lives on; raises if it does not exist."""
        tier = self._registry.get(name)
        if tier is not None and self._env(tier).file_exists(name):
            return tier
        if self.local.file_exists(name):
            self._registry[name] = LOCAL
            return LOCAL
        if self.cloud.file_exists(name):
            self._registry[name] = CLOUD
            return CLOUD
        raise NotFoundError(f"file not found on any tier: {name}")

    def is_cloud(self, name: str) -> bool:
        # Only "missing from both tiers" reads as not-cloud; anything else
        # (notably CrashPointFired) must propagate.
        try:
            return self.tier_of(name) == CLOUD
        except NotFoundError:
            return False

    def _env(self, tier: str) -> Env:
        if tier == LOCAL:
            return self.local
        if tier == CLOUD:
            return self.cloud
        raise ValueError(f"unknown tier {tier!r}")

    # -- Env API --------------------------------------------------------------

    def new_writable_file(self, name: str) -> WritableFile:
        tier = self.router(name)
        self._registry[name] = tier
        return self._env(tier).new_writable_file(name)

    def new_random_access_file(self, name: str) -> RandomAccessFile:
        return _HybridRandomAccessFile(self, name)

    def read_file(self, name: str) -> bytes:
        return self._env(self.tier_of(name)).read_file(name)

    def write_file(self, name: str, data: bytes) -> None:
        tier = self.router(name)
        self._registry[name] = tier
        self._env(tier).write_file(name, data)

    def note_tier(self, name: str, tier: str) -> None:
        """Record that ``name`` now lives on ``tier`` (staged migrations)."""
        self._env(tier)  # validate
        self._registry[name] = tier

    def delete_file(self, name: str) -> None:
        # A crash between a staged upload completing and the source delete
        # can leave the file on both tiers; delete every copy so the later
        # (post-recovery) delete cannot leak the shadow copy.
        found = False
        for env in (self.local, self.cloud):
            if env.file_exists(name):
                env.delete_file(name)
                found = True
        if not found:
            raise NotFoundError(f"file not found on any tier: {name}")
        self._registry.pop(name, None)

    def rename_file(self, old: str, new: str) -> None:
        tier = self.tier_of(old)
        self._env(tier).rename_file(old, new)
        self._registry.pop(old, None)
        self._registry[new] = tier

    def file_exists(self, name: str) -> bool:
        try:
            self.tier_of(name)
            return True
        except NotFoundError:
            return False

    def file_size(self, name: str) -> int:
        return self._env(self.tier_of(name)).file_size(name)

    def list_files(self, prefix: str = "") -> list[str]:
        names = set(self.local.list_files(prefix)) | set(self.cloud.list_files(prefix))
        return sorted(names)

    def clock_hosts(self) -> list[ClockCharged]:
        return [self.local.device, self.cloud.store]

    # -- migration -------------------------------------------------------------

    def _resolve_raf(self, name: str) -> RandomAccessFile:
        """Open the tier-local random-access file for ``name`` (internal)."""
        return self._env(self.tier_of(name)).new_random_access_file(name)

    def migrate(self, name: str, to_tier: str) -> None:
        """Move a file between tiers (read + write + delete, fully charged)."""
        from_tier = self.tier_of(name)
        if from_tier == to_tier:
            return
        data = self._env(from_tier).read_file(name)
        self._env(to_tier).write_file(name, data)
        self._env(from_tier).delete_file(name)
        self._registry[name] = to_tier


class _HybridRandomAccessFile(RandomAccessFile):
    """Tier-following reader: open handles survive migrations.

    The hybrid store migrates SSTables between tiers while readers (table
    cache, live iterators, readahead buffers) hold handles to them. This
    wrapper delegates to the current tier's file and, when a read discovers
    the copy moved (the old tier raises NotFoundError), re-resolves the
    tier once and retries — so demotion/promotion is transparent to every
    reader.
    """

    def __init__(self, hybrid: HybridEnv, name: str) -> None:
        super().__init__(name)
        self._hybrid = hybrid
        self._inner = hybrid._resolve_raf(name)

    def read(self, offset: int, length: int) -> bytes:
        try:
            return self._inner.read(offset, length)
        except NotFoundError:
            self._inner = self._hybrid._resolve_raf(self.name)
            return self._inner.read(offset, length)

    def size(self) -> int:
        try:
            return self._inner.size()
        except NotFoundError:
            self._inner = self._hybrid._resolve_raf(self.name)
            return self._inner.size()
