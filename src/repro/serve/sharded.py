"""Key-space-partitioned router over N independent RocksMash shards.

:class:`ShardedDB` models a multi-tenant serving node the way the paper's
xWAL shards the write-ahead log: the user key space is split into
contiguous ranges, each owned by a full RocksMash stack (its own memtable,
extended WAL, manifest, placement manager, and persistent-cache namespace)
while all shards share one simulated clock, local device, cloud object
store, and counter set. Range partitioning — rather than hashing — keeps
global key order intact, so a cross-shard scan is the in-order
concatenation of per-shard scans and a sharded execution returns
byte-identical results to an unsharded one.

Cross-shard operations (``multi_get``, ``scan``, ``write`` batches,
``flush``) fan out as :class:`~repro.sim.clock.ForkJoinRegion` branches:
each shard's I/O accumulates on a forked child clock and the operation
completes at the slowest shard, exactly like the store's own parallel
cloud fetches.

Maintenance deferral: each shard's write-triggered flush+compaction is
*deferred* — the engine's ``maintenance_hook`` marks the shard dirty instead
of flushing inline — and :meth:`ShardedDB.run_pending_maintenance` replays
it after the triggering request's response. Under the open-loop front-end
this puts
compaction work on the shard's busy timeline where it surfaces as
*queueing* interference on later requests (the realistic tail-latency
mechanism) instead of inflating one unlucky request's service time.
"""

from __future__ import annotations

import typing
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace

from repro.facade import take_rows
from repro.lsm.write_batch import WriteBatch
from repro.mash.store import RocksMashStore, StoreConfig
from repro.metrics.counters import CounterSet
from repro.metrics.latency import LatencyHistogram
from repro.obs.trace import Tracer
from repro.sim.clock import ForkJoinRegion, SimClock, StopwatchRegion
from repro.storage.cloud import CloudObjectStore
from repro.storage.local import LocalDevice
from repro.util.encoding import TYPE_VALUE
from repro.workloads.generator import make_key
from repro.workloads.ycsb import Op, apply_op


@dataclass(frozen=True)
class KeyRangeRouter:
    """Contiguous range partitioning of the user key space.

    ``boundaries`` are the N-1 split keys of an N-shard layout, strictly
    ascending. Shard ``i`` owns ``[boundaries[i-1], boundaries[i])`` with
    open sentinels at both ends — a key equal to a boundary belongs to the
    shard *above* it.
    """

    boundaries: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if any(b >= a for a, b in zip(self.boundaries[1:], self.boundaries)):
            raise ValueError("router boundaries must be strictly ascending")

    @classmethod
    def uniform(cls, num_shards: int, key_space: int) -> "KeyRangeRouter":
        """Split the YCSB ``make_key`` index space into equal ranges."""
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if num_shards > key_space:
            raise ValueError(f"cannot split {key_space} keys into {num_shards} shards")
        return cls(
            tuple(
                make_key(key_space * i // num_shards) for i in range(1, num_shards)
            )
        )

    @property
    def num_shards(self) -> int:
        return len(self.boundaries) + 1

    def shard_of(self, key: bytes) -> int:
        """The shard owning ``key``."""
        return bisect_right(self.boundaries, key)

    def shards_for_range(self, begin: bytes | None, end: bytes | None) -> range:
        """Every shard intersecting the half-open range ``[begin, end)``.

        ``None`` bounds are open. An ``end`` equal to a boundary key
        excludes the shard that starts at that boundary (half-open
        semantics), so scans touch no shard they cannot read from.
        """
        lo = 0 if begin is None else self.shard_of(begin)
        hi = (
            self.num_shards - 1
            if end is None
            else bisect_left(self.boundaries, end)
        )
        return range(lo, hi + 1)


@dataclass
class ServeConfig:
    """A sharded serving node: N copies of ``base``, one per key range."""

    base: StoreConfig
    num_shards: int = 4
    key_space: int = 10_000
    """Key-index space the uniform router splits."""


TRACE_CAPACITY = 4096
"""Span ring of the node-wide tracer all shards record into (a single
store's tracer keeps 2048)."""


class ShardedDB:
    """N-way sharded serving facade over RocksMash stores.

    Presents the same timed KV surface as a single store facade (so the
    YCSB runners drive it unchanged) plus the request-serving hooks the
    open-loop front-end needs: :meth:`shards_touched`, :meth:`execute`,
    and :meth:`run_pending_maintenance`.
    """

    def __init__(self, config: ServeConfig, *, clock: SimClock | None = None) -> None:
        self.config = config
        self.clock = clock if clock is not None else SimClock()
        self.router = KeyRangeRouter.uniform(config.num_shards, config.key_space)
        self.num_shards = self.router.num_shards
        self.name = f"rocksmash-x{self.num_shards}"
        self.counters = CounterSet()
        self.tracer = Tracer(self.clock, capacity=TRACE_CAPACITY)
        """One tracer for the whole node, handed to the shared devices and to
        every shard: each shard's block path, persistent cache and placement
        post to it from their first instruction."""
        base = config.base
        self.local_device = LocalDevice(
            self.clock,
            capacity_bytes=base.local_capacity_bytes,
            counters=self.counters,
            tracer=self.tracer,
        )
        self.cloud_store = CloudObjectStore(
            self.clock, base.cloud_model, counters=self.counters, tracer=self.tracer
        )
        self.shards: list[RocksMashStore] = []
        self._pending: set[int] = set()
        # Under a span, so that what opening the shards costs is attributed.
        with self.tracer.span("open"):
            for index in range(self.num_shards):
                shard_config = replace(
                    base,
                    db_prefix=f"db/s{index:02d}/",
                    # A shard scans without the prefetch schedule: the
                    # router's branches already overlap the shards' scans,
                    # and the node keeps that one level of fan-out.
                    options=replace(base.options, scan_prefetch_depth=0),
                    pcache=replace(base.pcache, prefix=f"pcache/s{index:02d}/"),
                )
                self.shards.append(
                    RocksMashStore(
                        shard_config,
                        clock=self.clock,
                        local_device=self.local_device,
                        cloud_store=self.cloud_store,
                        counters=self.counters,
                        tracer=self.tracer,
                        maintenance_hook=self._defer_hook(index),
                    )
                )
        self._in_request = False
        self._request_clock: SimClock | None = None
        self.read_latency = LatencyHistogram()
        self.write_latency = LatencyHistogram()
        self.maintenance_seconds = 0.0
        self.maintenance_events = 0

    def _defer_hook(self, index: int) -> Callable[[], None]:
        def hook() -> None:
            self._pending.add(index)

        return hook

    @property
    def _hosts(self) -> list[typing.Any]:
        return [self.local_device, self.cloud_store]

    # -- per-request clock scoping ----------------------------------------

    @property
    def op_clock(self) -> SimClock:
        """The clock timed operations read: the active request's child
        clock inside a :meth:`request_scope`, the node clock otherwise."""
        return self._request_clock if self._request_clock is not None else self.clock

    @contextmanager
    def request_scope(self, clock: SimClock) -> Iterator[SimClock]:
        """Serve operations on a per-request child clock (both shared
        devices, the tracer's span stack, and every stopwatch follow)."""
        with ExitStack() as stack:
            stack.enter_context(self.local_device.clock_scope(clock))
            stack.enter_context(self.cloud_store.clock_scope(clock))
            stack.enter_context(self.tracer.request_scope(clock))
            saved_clock = self._request_clock
            saved_flag = self._in_request
            self._request_clock = clock
            self._in_request = True
            try:
                yield clock
            finally:
                self._request_clock = saved_clock
                self._in_request = saved_flag

    # -- serving hooks ----------------------------------------------------

    def shards_touched(self, op: Op) -> tuple[int, ...]:
        """The shards an op must wait on (scans scatter to every shard at
        or above their begin key; point ops touch exactly one)."""
        if op.kind == "scan":
            return tuple(self.router.shards_for_range(op.key, None))
        return (self.router.shard_of(op.key),)

    def execute(self, op: Op, clock: SimClock) -> typing.Any:
        """Run one YCSB op inside a request scope on ``clock``."""
        with self.request_scope(clock):
            return apply_op(self, op)

    def run_pending_maintenance(self, clock: SimClock) -> float:
        """Replay deferred flush/compaction on ``clock``; returns the
        simulated seconds spent (0.0 when nothing was pending)."""
        if not self._pending:
            return 0.0
        pending = sorted(self._pending)
        self._pending.clear()
        start = clock.now
        with self.request_scope(clock), self.tracer.span("maintenance"):
            for index in pending:
                self.shards[index].flush()
        spent = clock.now - start
        self.maintenance_seconds += spent
        self.maintenance_events += len(pending)
        return spent

    def _drain_inline(self) -> None:
        """Closed-loop parity: outside a request scope, deferred
        maintenance runs right after the op (off its latency) on the node
        clock, so throughput still pays for every flush."""
        if self._in_request or not self._pending:
            return
        pending = sorted(self._pending)
        self._pending.clear()
        start = self.clock.now
        with self.tracer.span("maintenance"):
            for index in pending:
                self.shards[index].flush()
        self.maintenance_seconds += self.clock.now - start
        self.maintenance_events += len(pending)

    # -- KV API (facade-compatible) ---------------------------------------

    def put(self, key: bytes, value: bytes, *, sync: bool = True) -> None:
        shard = self.shards[self.router.shard_of(key)]
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("put"):
            shard.db.put(key, value, sync=sync)
        self.write_latency.record(sw.elapsed)
        self._drain_inline()

    def delete(self, key: bytes, *, sync: bool = True) -> None:
        shard = self.shards[self.router.shard_of(key)]
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("delete"):
            shard.db.delete(key, sync=sync)
        self.write_latency.record(sw.elapsed)
        self._drain_inline()

    def write(self, batch: WriteBatch, *, sync: bool = True) -> None:
        """Apply a batch, split by owning shard.

        Atomicity is per shard — each sub-batch commits atomically through
        its shard's WAL, and cross-shard sub-batches commit as parallel
        fork/join branches (a real router's two-phase commit is out of
        scope; no workload in this reproduction observes the difference).
        """
        groups: dict[int, WriteBatch] = {}
        for bop in batch:
            sub = groups.setdefault(self.router.shard_of(bop.key), WriteBatch())
            if bop.value_type == TYPE_VALUE:
                sub.put(bop.key, bop.value)
            else:
                sub.delete(bop.key)
        if not groups:
            return
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("write"):
            if len(groups) == 1:
                ((index, sub),) = groups.items()
                self.shards[index].db.write(sub, sync=sync)
            else:
                region = ForkJoinRegion(self.op_clock, self._hosts)
                for index in sorted(groups):
                    with region.branch():
                        self.shards[index].db.write(groups[index], sync=sync)
                region.join()
        self.write_latency.record(sw.elapsed)
        self._drain_inline()

    def get(self, key: bytes) -> bytes | None:
        shard = self.shards[self.router.shard_of(key)]
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("get"):
            value = shard.db.get(key)
        self.read_latency.record(sw.elapsed)
        self._drain_inline()
        return value

    def multi_get(self, keys: list[bytes]) -> dict[bytes, bytes | None]:
        """Batched point lookups, fanned out one branch per touched shard."""
        groups: dict[int, list[bytes]] = {}
        for key in keys:
            groups.setdefault(self.router.shard_of(key), []).append(key)
        results: dict[bytes, bytes | None] = {}
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("multi_get"):
            region = ForkJoinRegion(self.op_clock, self._hosts)
            for index in sorted(groups):
                with region.branch():
                    results.update(self.shards[index].db.multi_get(groups[index]))
            region.join()
        self.read_latency.record(sw.elapsed)
        self._drain_inline()
        return {key: results[key] for key in keys}

    def scan(
        self, begin: bytes | None = None, end: bytes | None = None, limit: int | None = None
    ) -> list[tuple[bytes, bytes]]:
        """Ordered range scan, scatter-gathered across the touched shards.

        Every touched shard speculatively serves up to the full remaining
        ``limit`` in a parallel branch (the router cannot know how many
        entries earlier shards hold until they answer); the gather step
        concatenates in shard order — which *is* global key order under
        range partitioning — and truncates.
        """
        touched = list(self.router.shards_for_range(begin, end))
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("scan"):
            if len(touched) == 1:
                results = take_rows(self.shards[touched[0]].db.scan(begin, end, limit), limit)
            else:
                gathered: dict[int, list[tuple[bytes, bytes]]] = {}
                region = ForkJoinRegion(self.op_clock, self._hosts)
                for index in touched:
                    with region.branch():
                        rows = self.shards[index].db.scan(begin, end, limit)
                        gathered[index] = take_rows(rows, limit)
                region.join()
                results = [kv for index in touched for kv in gathered[index]]
                if limit is not None:
                    results = results[:limit]
        self.read_latency.record(sw.elapsed)
        self._drain_inline()
        return results

    def flush(self) -> None:
        """Flush every shard (parallel branches), plus anything deferred."""
        self._pending.clear()  # the full flush below supersedes them
        with self.tracer.span("flush"):
            region = ForkJoinRegion(self.op_clock, self._hosts)
            for shard in self.shards:
                with region.branch():
                    shard.db.flush()
            region.join()

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    # -- reporting ---------------------------------------------------------

    def local_bytes(self) -> int:
        return self.local_device.used_bytes()

    def cloud_bytes(self) -> int:
        return self.cloud_store.used_bytes()
