"""Simulated local block device (SSD-like) with crash semantics.

Each file is one byte array with a *durable mark*: bytes below it survive a
crash, the unsynced tail above it may not. ``append`` is cheap (page-cache
write); ``sync`` pays the device's write latency plus transfer time for the
tail and moves the mark to the end.
:meth:`LocalDevice.crash` discards every unsynced tail — recovery tests use
this to assert that acknowledged (synced) writes survive a crash and
unacknowledged ones may not.

All costs are charged to a shared :class:`~repro.sim.clock.SimClock`; see
DESIGN.md §4 for the timing methodology.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import IOErrorSim, NotFoundError
from repro.metrics.counters import CounterSet
from repro.sim.clock import ClockCharged, SimClock
from repro.sim.failure import FaultInjector
from repro.sim.latency import LatencyModel, nvme_ssd

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


@dataclass
class _FileState:
    data: bytearray = field(default_factory=bytearray)
    durable_len: int = 0  # data[:durable_len] survives a crash
    synced_once: bool = False  # creation itself is durable only after a sync


class LocalDevice(ClockCharged):
    """A named-file byte store with an SSD latency model.

    Args:
        clock: simulated clock charged for every I/O.
        model: latency/bandwidth model (defaults to NVMe-class).
        capacity_bytes: optional hard capacity; exceeding it raises
            :class:`IOErrorSim` (placement layers are expected to stay under
            budget, so hitting this is a bug signal, not flow control).
        counters: metrics sink (``local.read_ops`` etc.); a private set is
            created when omitted.
        faults: optional fault injector applied to reads/syncs.
    """

    def __init__(
        self,
        clock: SimClock,
        model: LatencyModel | None = None,
        *,
        capacity_bytes: int | None = None,
        counters: CounterSet | None = None,
        faults: FaultInjector | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.clock = clock
        self.model = model or nvme_ssd()
        self.capacity_bytes = capacity_bytes
        self.counters = counters if counters is not None else CounterSet()
        self.faults = faults
        self.tracer = tracer  # tier attribution; a store facade points it at its own
        self._files: dict[str, _FileState] = {}

    # -- write path -------------------------------------------------------

    def create(self, name: str) -> None:
        """Create an empty file; error if it already exists."""
        if name in self._files:
            raise IOErrorSim(f"local file already exists: {name}")
        self._files[name] = _FileState()

    def append(self, name: str, data: bytes) -> None:
        """Buffer ``data`` at the end of ``name`` (durable after ``sync``)."""
        state = self._require(name)
        if self.capacity_bytes is not None and self.used_bytes() + len(data) > self.capacity_bytes:
            raise IOErrorSim(
                f"local device over capacity: {self.used_bytes() + len(data)}"
                f" > {self.capacity_bytes}"
            )
        state.data += data

    def sync(self, name: str) -> None:
        """Make all buffered bytes of ``name`` durable; charges write cost."""
        if self.faults is not None:
            self.faults.check(f"local.sync({name})")
        state = self._require(name)
        nbytes = len(state.data) - state.durable_len
        cost = self.model.write_cost(nbytes)
        self.clock.advance(cost)
        if self.tracer is not None:
            self.tracer.charge("local", cost)
        self.counters.inc("local.sync_ops")
        self.counters.inc("local.write_bytes", nbytes)
        state.durable_len = len(state.data)
        state.synced_once = True

    def write_file(self, name: str, data: bytes) -> None:
        """Atomically create-or-replace ``name`` with ``data``, synced."""
        self._files[name] = _FileState()
        self.append(name, data)
        self.sync(name)

    # -- read path --------------------------------------------------------

    def read(self, name: str, offset: int = 0, length: int | None = None) -> bytes:
        """Positional read; charges read cost for the returned bytes."""
        if self.faults is not None:
            self.faults.check(f"local.read({name})")
        data = self._require(name).data
        end = None if length is None else offset + length
        chunk = bytes(memoryview(data)[offset:end])  # copies the range, not the file
        nbytes = len(chunk)
        cost = self.model.read_cost(nbytes)
        self.clock.advance(cost)
        if self.tracer is not None:
            self.tracer.charge("local", cost)
        self.counters.inc("local.read_ops")
        self.counters.inc("local.read_bytes", nbytes)
        return chunk

    # -- namespace --------------------------------------------------------

    def exists(self, name: str) -> bool:
        return name in self._files

    def size(self, name: str) -> int:
        return len(self._require(name).data)

    def delete(self, name: str) -> None:
        if name not in self._files:
            raise NotFoundError(f"local file not found: {name}")
        del self._files[name]

    def rename(self, old: str, new: str) -> None:
        state = self._files.pop(old, None)
        if state is None:
            raise NotFoundError(f"local file not found: {old}")
        self._files[new] = state

    def list_files(self, prefix: str = "") -> list[str]:
        return sorted(name for name in self._files if name.startswith(prefix))

    def used_bytes(self) -> int:
        """Total bytes across all files (durable + pending)."""
        return sum(len(state.data) for state in self._files.values())

    # -- failure semantics --------------------------------------------------

    def crash(self, *, torn_tail: bool = False, rng: random.Random | None = None) -> None:
        """Simulate a power failure: drop unsynced tails and unsynced files.

        With ``torn_tail=True`` an arbitrary byte *prefix* of each unsynced
        tail survives instead of none of it — the disk persisted part of a
        write the filesystem never acknowledged. This is strictly harsher
        than the default: recovery must treat a half-written record the
        same as a missing one. ``rng`` picks the surviving prefix lengths
        (a seeded :class:`random.Random` keeps schedules deterministic).
        """
        if rng is None:
            rng = random.Random(0)
        doomed = []
        for name, state in self._files.items():
            pending = len(state.data) - state.durable_len
            if torn_tail and pending:
                keep = rng.randrange(pending + 1)
                state.durable_len += keep
                state.synced_once = state.synced_once or keep > 0
            del state.data[state.durable_len :]
            if not state.synced_once:
                doomed.append(name)
        for name in doomed:
            del self._files[name]

    # -- internal -----------------------------------------------------------

    def _require(self, name: str) -> _FileState:
        state = self._files.get(name)
        if state is None:
            raise NotFoundError(f"local file not found: {name}")
        return state
