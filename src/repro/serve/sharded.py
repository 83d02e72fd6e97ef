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

The node is a :class:`~repro.facade.StoreFacade` whose engine,
:class:`ShardEngine`, routes each call to its shards. Cross-shard operations
(``multi_get``, ``scan``, ``flush``, ``compact_range``) fan out as
:class:`~repro.sim.clock.ForkJoinRegion` branches on the node's one clock:
each shard's I/O runs from the operation's start and the operation
completes at the slowest shard, exactly like the store's own parallel cloud
fetches. A ``write`` batch must stay inside one shard: committing one that
spans shards atomically would take a two-phase commit across their WALs,
which the node does not have, so it is refused as a snapshot is.

Maintenance deferral: each shard's write-triggered flush+compaction goes
through the engine's ``maintenance_hook``. While :meth:`ShardedDB.serve`
serves a request the hook only marks the shard dirty, and the flush runs
after the response, on the request's timeline: compaction work lands on
the shard's busy timeline where it surfaces as *queueing* interference on
later requests (the realistic tail-latency mechanism) instead of inflating
one unlucky request's service time. Outside a request the hook flushes at
once, inside the write, as a single store's maintenance is.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Generator
from dataclasses import dataclass, replace
from functools import partial
from typing import Any

from repro.facade import Explanation, StoreFacade, take_rows
from repro.lsm.db import Snapshot
from repro.lsm.write_batch import WriteBatch
from repro.mash.store import RocksMashStore, StoreConfig
from repro.metrics.counters import CounterSet
from repro.obs.trace import Tracer
from repro.sim.clock import ForkJoinRegion, SimClock
from repro.storage.cloud import CloudObjectStore
from repro.storage.cost import CostModel
from repro.storage.local import LocalDevice
from repro.workloads.generator import make_key
from repro.workloads.ycsb import Op


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

    @property
    def cost_model(self) -> CostModel:
        """The node is billed as one store of its shards' cost model."""
        return self.base.cost_model


TRACE_CAPACITY = 4096
"""Span ring of the node-wide tracer all shards record into (a single
store's tracer keeps 2048)."""


_NO_SNAPSHOT = "a sharded node reads no snapshot"
_CROSS_SHARD = "a sharded node commits a batch only inside one shard"


def _no_snapshot(snapshot: Snapshot | None) -> None:
    if snapshot is not None:
        raise NotImplementedError(_NO_SNAPSHOT)


class ShardEngine:
    """The engine behind a :class:`ShardedDB`: routes each call to the
    shards owning its keys, forking on the node's one clock the way
    :meth:`repro.mash.store.MashDB.multi_get` forks on its Env's."""

    def __init__(self, router: KeyRangeRouter, clock: SimClock, tracer: Tracer) -> None:
        self.router = router
        self.clock = clock
        self.tracer = tracer
        self.shards: list[RocksMashStore] = []
        self._pending: set[int] = set()
        self.serving = False
        """Set while :meth:`ShardedDB.serve` serves a request: dirty shards
        then wait for its :meth:`drain`; otherwise :meth:`maintenance_hook`
        drains them inside the write (a single store's maintenance is part
        of its write too)."""

    def _fork(self) -> ForkJoinRegion:
        return ForkJoinRegion(self.clock)

    def drain(self) -> None:
        """Flush every shard a write left dirty, under one ``maintenance``
        span (none when no shard is dirty)."""
        if not self._pending:
            return
        pending = sorted(self._pending)
        self._pending.clear()
        with self.tracer.span("maintenance"):
            for index in pending:
                self.shards[index].flush()

    def maintenance_hook(self, index: int) -> None:
        """Shard ``index``'s memtable is full: mark it dirty, and flush it now
        unless a request is being served."""
        self._pending.add(index)
        if not self.serving:
            self.drain()

    def put(self, key: bytes, value: bytes, *, sync: bool = True) -> None:
        self.shards[self.router.shard_of(key)].db.put(key, value, sync=sync)

    def delete(self, key: bytes, *, sync: bool = True) -> None:
        self.shards[self.router.shard_of(key)].db.delete(key, sync=sync)

    def write(self, batch: WriteBatch, *, sync: bool = True) -> None:
        """Apply a batch atomically through the WAL of the one shard owning
        every key in it; a batch spanning shards is refused before any shard
        logs it."""
        owners = {self.router.shard_of(bop.key) for bop in batch}
        if len(owners) > 1:
            raise NotImplementedError(_CROSS_SHARD)
        if owners:
            self.shards[owners.pop()].db.write(batch, sync=sync)

    def get(self, key: bytes, *, snapshot: Snapshot | None = None) -> bytes | None:
        _no_snapshot(snapshot)
        return self.shards[self.router.shard_of(key)].db.get(key)

    def multi_get(
        self, keys: list[bytes], *, snapshot: Snapshot | None = None
    ) -> dict[bytes, bytes | None]:
        """Batched point lookups, fanned out one branch per touched shard."""
        _no_snapshot(snapshot)
        groups: dict[int, list[bytes]] = {}
        for key in keys:
            groups.setdefault(self.router.shard_of(key), []).append(key)
        results: dict[bytes, bytes | None] = {}
        region = self._fork()
        for index in sorted(groups):
            with region.branch():
                results.update(self.shards[index].db.multi_get(groups[index]))
        region.join()
        return {key: results[key] for key in keys}

    def scan(
        self,
        begin: bytes | None = None,
        end: bytes | None = None,
        limit: int | None = None,
        *,
        snapshot: Snapshot | None = None,
    ) -> Generator[tuple[bytes, bytes], None, None]:
        """Ordered range scan, scatter-gathered across the touched shards
        when the first row is asked for.

        Every touched shard speculatively serves up to the full remaining
        ``limit`` in a parallel branch (the router cannot know how many
        entries earlier shards hold until they answer); the gather step
        concatenates in shard order — which *is* global key order under
        range partitioning — and truncates.
        """
        _no_snapshot(snapshot)
        touched = self.router.shards_for_range(begin, end)
        if len(touched) == 1:
            rows = take_rows(self.shards[touched[0]].db.scan(begin, end, limit), limit)
        else:
            gathered: dict[int, list[tuple[bytes, bytes]]] = {}
            region = self._fork()
            for index in touched:
                with region.branch():
                    shard_rows = self.shards[index].db.scan(begin, end, limit)
                    gathered[index] = take_rows(shard_rows, limit)
            region.join()
            rows = [kv for index in touched for kv in gathered[index]][:limit]
        yield from rows

    def flush(self) -> None:
        """Flush every shard (parallel branches), plus anything deferred."""
        self._pending.clear()  # the full flush below supersedes them
        region = self._fork()
        for shard in self.shards:
            with region.branch():
                shard.db.flush()
        region.join()

    def compact_range(self, begin: bytes | None = None, end: bytes | None = None) -> None:
        """Compact ``[begin, end]`` on every shard it touches, one parallel
        branch per shard."""
        region = self._fork()
        for index in self.router.shards_for_range(begin, end):
            with region.branch():
                self.shards[index].db.compact_range(begin, end)
        region.join()

    def snapshot(self) -> Snapshot:
        raise NotImplementedError(_NO_SNAPSHOT)

    def release_snapshot(self, snap: Snapshot) -> None:
        raise NotImplementedError(_NO_SNAPSHOT)

    def metrics(self) -> dict[str, int | float]:
        """Each name of the shards' :meth:`DB.metrics`, summed, except
        ``last_sequence``: each shard numbers its own writes, so the node
        reports the largest."""
        out: dict[str, int | float] = {}
        for shard in self.shards:
            for name, value in shard.db.metrics().items():
                out[name] = out.get(name, 0) + value
        out["last_sequence"] = max(shard.db.versions.last_sequence for shard in self.shards)
        return out

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def abandon(self) -> None:
        for shard in self.shards:
            shard.db.abandon()


class ShardedDB(StoreFacade[ShardEngine]):
    """N-way sharded serving node over RocksMash stores.

    The facade's timed KV surface (so the YCSB runners and the open-loop
    front-end drive it as they drive a store) over a :class:`ShardEngine`;
    it differs from a store only in routing (:meth:`shards_touched`) and in
    serving a request's deferred maintenance after its response
    (:meth:`serve`).
    """

    cloud_store: CloudObjectStore

    @classmethod
    def create(cls, config: ServeConfig, *, clock: SimClock | None = None) -> ShardedDB:
        """Stand up a node on fresh simulated devices and one node tracer,
        which every shard posts to from its first instruction."""
        clock = clock or SimClock()
        counters = CounterSet()
        base = config.base
        return cls(
            config,
            clock=clock,
            local_device=LocalDevice(
                clock, capacity_bytes=base.local_capacity_bytes, counters=counters
            ),
            cloud_store=CloudObjectStore(clock, base.cloud_model, counters=counters),
            counters=counters,
            tracer=Tracer(clock, capacity=TRACE_CAPACITY),
        )

    def _open_db(self) -> ShardEngine:
        """Open one shard per key range (``db/sNN/``, ``pcache/sNN/``) under
        an ``open`` span, so that what opening them costs is attributed."""
        config: ServeConfig = self.config
        self.router = KeyRangeRouter.uniform(config.num_shards, config.key_space)
        self.num_shards = self.router.num_shards
        self.name = f"rocksmash-x{self.num_shards}"
        engine = ShardEngine(self.router, self.clock, self.tracer)
        self.shards = engine.shards
        with self.tracer.span("open"):
            for index in range(self.num_shards):
                shard_config = replace(
                    config.base,
                    db_prefix=f"db/s{index:02d}/",
                    pcache=replace(config.base.pcache, prefix=f"pcache/s{index:02d}/"),
                )
                self.shards.append(
                    RocksMashStore(
                        shard_config,
                        clock=self.clock,
                        local_device=self.local_device,
                        cloud_store=self.cloud_store,
                        counters=self.counters,
                        tracer=self.tracer,
                        maintenance_hook=partial(engine.maintenance_hook, index),
                    )
                )
        return engine

    def explain(self, key: bytes) -> Explanation:
        """:meth:`StoreFacade.explain` of a node ``get``, served by the shard
        that owns ``key``; its latency sample is the node's."""
        return self._explain(self.shards[self.router.shard_of(key)].db, key)

    # -- serving hooks ----------------------------------------------------

    def shards_touched(self, op: Op) -> tuple[int, ...]:
        """The shards an op must wait on (scans scatter to every shard at
        or above their begin key; point ops touch exactly one)."""
        if op.kind == "scan":
            return tuple(self.router.shards_for_range(op.key, None))
        return (self.router.shard_of(op.key),)

    def serve(self, op: Op, clock: SimClock) -> tuple[Any, float]:
        """:meth:`StoreFacade.serve`, with the flushes the op's writes
        deferred run after the response left, on the same timeline: its
        ``maintenance`` span starts at the returned time and ``clock`` ends
        where the span does."""
        engine = self.db
        engine.serving = True
        try:
            outcome, responded = super().serve(op, clock)
        finally:
            engine.serving = False
        with self.request_scope(clock):
            engine.drain()
        return outcome, responded
