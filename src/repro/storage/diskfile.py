"""Directory-backed local device: the same simulated timing, real bytes.

:class:`DirectoryBackedDevice` is a drop-in for
:class:`~repro.storage.local.LocalDevice` that persists every file to an
actual directory on the host filesystem. Simulated-clock accounting is
unchanged (costs still come from the latency model — host I/O speed never
leaks into results); what changes is durability: a store built on this
device survives *process* restarts, not just object restarts, so it can be
inspected with ordinary tools and reopened across Python runs.

Crash semantics *are* the in-memory device's (it is a subclass that only
mirrors durable mutations): appends buffer in memory until ``sync`` writes
them through (with a real ``flush`` + ``os.fsync``); ``crash()`` discards
unsynced tails and never-synced files, neither of which reached the host.

File names may contain ``/`` (e.g. ``db/000001.sst``); they map to
subdirectories under the root.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import IOErrorSim
from repro.metrics.counters import CounterSet
from repro.sim.clock import SimClock
from repro.sim.failure import FaultInjector
from repro.sim.latency import LatencyModel
from repro.storage.local import LocalDevice, _FileState

if TYPE_CHECKING:
    from repro.storage.cloud import CloudObjectStore


def directory_backed_object_store(
    root: str | os.PathLike[str],
    clock: SimClock,
    model: LatencyModel | None = None,
    *,
    counters: CounterSet | None = None,
    faults: FaultInjector | None = None,
) -> CloudObjectStore:
    """A :class:`~repro.storage.cloud.CloudObjectStore` persisted to a host
    directory: existing objects are loaded at construction, and every
    successful put/delete is written through, so a deployment survives
    process restarts. Timing/cost accounting is unchanged."""
    from repro.storage.cloud import CloudObjectStore

    root_path = Path(root)
    root_path.mkdir(parents=True, exist_ok=True)

    class _DiskObjectStore(CloudObjectStore):
        def __init__(self) -> None:
            super().__init__(clock, model, counters=counters, faults=faults)
            for path in root_path.rglob("*"):
                if path.is_file():
                    key = str(path.relative_to(root_path))
                    self._objects[key] = path.read_bytes()

        def _persist(self, key: str) -> None:
            path = (root_path / key).resolve()
            if not str(path).startswith(str(root_path.resolve())):
                raise IOErrorSim(f"object key escapes store root: {key}")
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(path.suffix + ".tmp")
            tmp.write_bytes(self._objects[key])
            os.replace(tmp, path)

        def _unpersist(self, key: str) -> None:
            path = root_path / key
            path.unlink(missing_ok=True)

        def put(self, key: str, data: bytes) -> None:
            super().put(key, data)
            self._persist(key)

        def complete_multipart(self, key: str, data: bytes) -> None:
            super().complete_multipart(key, data)
            self._persist(key)

        def copy(self, src: str, dst: str) -> None:
            super().copy(src, dst)
            self._persist(dst)

        def delete(self, key: str) -> None:
            super().delete(key)
            self._unpersist(key)

    return _DiskObjectStore()


class DirectoryBackedDevice(LocalDevice):
    """A LocalDevice whose durable state is mirrored to a host directory.

    Existing host files are loaded at construction as fully durable; reads,
    checks, charges and counters are the inherited in-memory ones, and only
    the mutations that change *durable* state are written through.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        clock: SimClock,
        model: LatencyModel | None = None,
        *,
        capacity_bytes: int | None = None,
        counters: CounterSet | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        super().__init__(
            clock,
            model,
            capacity_bytes=capacity_bytes,
            counters=counters,
            faults=faults,
        )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        for path in self.root.rglob("*"):
            if path.is_file():
                data = bytearray(path.read_bytes())
                self._files[str(path.relative_to(self.root))] = _FileState(
                    data, durable_len=len(data), synced_once=True
                )

    def _path(self, name: str) -> Path:
        path = (self.root / name).resolve()
        if not str(path).startswith(str(self.root.resolve())):
            raise IOErrorSim(f"file name escapes device root: {name}")
        return path

    def _mirror(self, name: str, durable_before: int) -> None:
        """Write ``name``'s bytes past ``durable_before`` through to the host."""
        state = self._files[name]
        path = self._path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Nothing durable before means the file is new or was replaced by
        # ``write_file``: write it whole beside the target and swap it in
        # (atomic on POSIX). Otherwise append what the sync added.
        target = path if durable_before else path.with_suffix(path.suffix + ".tmp")
        with open(target, "ab" if durable_before else "wb") as fh:
            fh.write(memoryview(state.data)[durable_before : state.durable_len])
            fh.flush()
            os.fsync(fh.fileno())
        if target != path:
            os.replace(target, path)

    # Names enter the device through create, write_file and rename: checking
    # there keeps every later mutation inside the root.

    def create(self, name: str) -> None:
        self._path(name)
        super().create(name)

    def write_file(self, name: str, data: bytes) -> None:
        self._path(name)
        super().write_file(name, data)  # fresh state, so sync mirrors it whole

    def sync(self, name: str) -> None:
        state = self._files.get(name)
        durable_before = state.durable_len if state is not None else 0
        super().sync(name)  # raises for a missing name or an injected fault
        self._mirror(name, durable_before)

    def delete(self, name: str) -> None:
        super().delete(name)
        self._path(name).unlink(missing_ok=True)

    def rename(self, old: str, new: str) -> None:
        new_path = self._path(new)
        super().rename(old, new)
        if self._files[new].synced_once:
            new_path.parent.mkdir(parents=True, exist_ok=True)
            os.replace(self._path(old), new_path)
        else:  # nothing of ``old`` is on the host; a replaced ``new`` must go
            new_path.unlink(missing_ok=True)

    def crash(self, *, torn_tail: bool = False, rng: random.Random | None = None) -> None:
        before = {name: state.durable_len for name, state in self._files.items()}
        super().crash(torn_tail=torn_tail, rng=rng)
        for name, state in self._files.items():
            if state.durable_len > before[name]:  # a torn-tail prefix survived
                self._mirror(name, before[name])
