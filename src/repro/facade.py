"""Shared store facade: the uniform surface every system variant exposes.

The benchmark harness compares four systems (RocksMash and three baselines).
All of them present this facade — timed KV operations against the simulated
clock, tier occupancy, and a cost report — so experiments treat them
interchangeably.

Every timed operation is also recorded as a :class:`~repro.obs.trace.TraceSpan`
on the facade's :class:`~repro.obs.trace.Tracer`; the storage devices charge
their simulated-clock costs to the tracer, so each span carries a tier
breakdown (local/cloud/cpu seconds) that sums to its wall-clock elapsed time.
"""

from __future__ import annotations

from collections.abc import Generator, Iterator
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass
from itertools import islice

from repro.lsm.block_cache import BLOCK_SOURCES
from repro.lsm.db import DB, Snapshot
from repro.lsm.memtable import GetResult
from repro.lsm.write_batch import WriteBatch
from repro.metrics.counters import CounterSet
from repro.metrics.latency import LatencyHistogram
from repro.obs.prom import render_prometheus
from repro.obs.trace import Tracer
from repro.sim.clock import SimClock
from repro.storage.cloud import CloudObjectStore
from repro.storage.cost import CostModel, MonthlyBill
from repro.storage.local import LocalDevice


def take_rows(
    rows: Generator[tuple[bytes, bytes], None, None], limit: int | None
) -> list[tuple[bytes, bytes]]:
    """Take up to ``limit`` rows of a scan and close its generator.

    Closing here, not at garbage collection, makes a limited scan's cleanup
    (version unpin, the prefetch schedule's finish + waste accounting) run
    deterministically inside the caller's span. ``islice`` stops at the
    ``limit``-th row without pulling another, and a ``limit`` of 0 never
    starts the generator: no version pinned, no I/O for an empty answer.
    """
    with closing(rows):
        return list(islice(rows, limit))


@dataclass(frozen=True)
class Explanation:
    """Where one ``get`` went (:meth:`StoreFacade.explain`)."""

    value: bytes | None
    path: list[tuple[str, str]]
    """Ordered ``(layer, outcome)`` rows: ``memtable``, then per table probed
    ``bloom`` and the block sources tried in :data:`BLOCK_SOURCES` order,
    the last one named for the tier it read (``cloud`` / ``local``);
    ``open`` rows are the metadata reads of a table opened on the way."""
    local_s: float
    cloud_s: float
    cpu_s: float
    bytes_fetched: int
    """Bytes read from the local device and the cloud, caches included."""


_DEMAND_TIER = {"cloud_get": "cloud", "local_read": "local", "demand_read": "demand"}


class StoreFacade:
    """KV operations timed on the simulated clock, plus reporting.

    Subclasses must set (typically in ``__init__``): ``db``, ``clock``,
    ``counters``, ``local_device``, ``cloud_store`` (may be None),
    ``cost_model``, and a class-level ``name``. ``_init_facade`` must be
    called after ``clock``/``local_device``/``cloud_store`` exist so the
    tracer can be wired onto the devices; a store that is one part of a
    larger node passes the node's ``tracer`` instead of getting its own.
    """

    name = "store"
    db: DB
    clock: SimClock
    counters: CounterSet
    local_device: LocalDevice
    cloud_store: CloudObjectStore | None
    cost_model: CostModel

    def _init_facade(self, tracer: Tracer | None = None) -> None:
        self.read_latency = LatencyHistogram()
        self.write_latency = LatencyHistogram()
        self._request_clock: SimClock | None = None
        self.tracer = tracer if tracer is not None else Tracer(self.clock)
        for dev in (self.local_device, getattr(self, "cloud_store", None)):
            if dev is not None and hasattr(dev, "tracer"):
                dev.tracer = self.tracer

    # -- per-request clock scoping -----------------------------------------

    @property
    def op_clock(self) -> SimClock:
        """The clock timed operations read: the active request's child
        clock inside a :meth:`request_scope`, the store clock otherwise."""
        return self._request_clock if self._request_clock is not None else self.clock

    @contextmanager
    def request_scope(self, clock: SimClock) -> Iterator[SimClock]:
        """Serve operations on a per-request child clock.

        The open-loop serving layer (:mod:`repro.serve`) gives every
        in-flight request its own child clock starting at the request's
        scheduled service time. Inside this scope the storage devices, the
        tracer (fresh span stack — see :meth:`Tracer.request_scope`), and
        every facade stopwatch all read that clock, so concurrent requests
        and background flush/compaction coexist on the fork/join clock
        without sharing implicit singleton timing state.
        """
        with ExitStack() as stack:
            for dev in (self.local_device, getattr(self, "cloud_store", None)):
                if dev is not None and hasattr(dev, "clock_scope"):
                    stack.enter_context(dev.clock_scope(clock))
            stack.enter_context(self.tracer.request_scope(clock))
            saved = self._request_clock
            self._request_clock = clock
            try:
                yield clock
            finally:
                self._request_clock = saved

    # -- KV API -----------------------------------------------------------

    def put(self, key: bytes, value: bytes, *, sync: bool = True) -> None:
        with self.tracer.span("put") as span:
            self.db.put(key, value, sync=sync)
        self.write_latency.record(span.elapsed)

    def delete(self, key: bytes, *, sync: bool = True) -> None:
        with self.tracer.span("delete") as span:
            self.db.delete(key, sync=sync)
        self.write_latency.record(span.elapsed)

    def write(self, batch: WriteBatch, *, sync: bool = True) -> None:
        with self.tracer.span("write") as span:
            self.db.write(batch, sync=sync)
        self.write_latency.record(span.elapsed)

    def get(self, key: bytes, *, snapshot: Snapshot | None = None) -> bytes | None:
        with self.tracer.span("get") as span:
            value = self.db.get(key, snapshot=snapshot)
        self.read_latency.record(span.elapsed)
        return value

    def explain(self, key: bytes) -> Explanation:
        """One :meth:`get`, under its own span, as the layers it visited.

        Every block source posts its event after counting the block in
        ``block_path.hits``, so listening to the events with the counters
        beside them tells which source served each block; the simulated
        seconds are the span's, by tier.
        """
        db = self.db
        block_path = db.block_path
        in_memtable = db.memtable.get(key, db.versions.last_sequence).state != GetResult.ABSENT
        rows = [("memtable", "hit" if in_memtable else "miss")]
        trail: list[tuple[str, tuple[int, ...]]] = []
        sink = block_path.event

        def listen(label: str) -> None:
            trail.append((label, tuple(block_path.hits.values())))
            sink(label)

        def bytes_read() -> int:
            return self.counters.get("cloud.get_bytes") + self.counters.get("local.read_bytes")

        before = bytes_read()
        served = tuple(block_path.hits.values())
        block_path.event = listen
        try:
            value = self.get(key)
        finally:
            block_path.event = sink
        for label, hits in trail:
            if label == "bloom_checked":
                rows.append(("bloom", "pass"))
            elif label == "bloom_useful":
                rows[-1] = ("bloom", "reject")
            elif label == "bloom_false_positive":
                rows.append(("bloom", "false_positive"))
            elif hits == served:
                rows.append(("open", label))
            else:
                tried = next(i for i, (a, b) in enumerate(zip(served, hits)) if a != b)
                rows += [(source, "miss") for source in BLOCK_SOURCES[:tried]]
                tier = _DEMAND_TIER.get(label)
                rows.append((tier, "read") if tier else (BLOCK_SOURCES[tried], "hit"))
                served = hits
        tiers = self.tracer.spans[-1].tiers
        return Explanation(
            value, rows, tiers.local, tiers.cloud, tiers.cpu, bytes_read() - before
        )

    def multi_get(
        self, keys: list[bytes], *, snapshot: Snapshot | None = None
    ) -> dict[bytes, bytes | None]:
        """Batched point lookups (sequential by default)."""
        with self.tracer.span("multi_get") as span:
            results = self.db.multi_get(keys, snapshot=snapshot)
        self.read_latency.record(span.elapsed)
        return results

    def scan(
        self,
        begin: bytes | None = None,
        end: bytes | None = None,
        limit: int | None = None,
        *,
        snapshot: Snapshot | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Range scan over user keys in [begin, end)."""
        with self.tracer.span("scan") as span:
            rows = self.db.scan(begin, end, limit, snapshot=snapshot)
            results = take_rows(rows, limit)
        self.read_latency.record(span.elapsed)
        return results

    def flush(self) -> None:
        with self.tracer.span("flush"):
            self.db.flush()
        self.tracer.event("flush")

    def compact_range(self, begin: bytes | None = None, end: bytes | None = None) -> None:
        with self.tracer.span("compact_range"):
            self.db.compact_range(begin, end)

    def snapshot(self) -> Snapshot:
        return self.db.snapshot()

    def release_snapshot(self, snap: Snapshot) -> None:
        self.db.release_snapshot(snap)

    def close(self) -> None:
        self.db.close()

    # -- reporting ------------------------------------------------------------

    def local_bytes(self) -> int:
        return self.local_device.used_bytes()

    def cloud_bytes(self) -> int:
        return self.cloud_store.used_bytes() if self.cloud_store is not None else 0

    def cost_report(self, window_seconds: float) -> MonthlyBill:
        """Monthly bill extrapolated from the measured window."""
        return self.cost_model.monthly_bill(
            local_bytes=self.local_bytes(),
            cloud_bytes=self.cloud_bytes(),
            put_ops=self.counters.get("cloud.put_ops"),
            get_ops=self.counters.get("cloud.get_ops"),
            egress_bytes=self.counters.get("cloud.get_bytes"),
            window_seconds=window_seconds,
        )

    def metrics(self) -> dict[str, int | float]:
        """Every number the store keeps, flat: the counters, the engine's
        :meth:`DB.metrics`, the tracer's event counts (``event.<label>``) and
        busy seconds by tier (``sim.<tier>``)."""
        out: dict[str, int | float] = dict(self.counters.snapshot())
        out.update(self.db.metrics())
        out.update({f"event.{label}": n for label, n in self.tracer.event_counts.items()})
        out.update({f"sim.{tier}": t for tier, t in self.tracer.totals.as_dict().items()})
        return out

    def dump_metrics(self) -> str:
        """:meth:`metrics` in Prometheus text exposition format — counters and
        the tracer's totals as counters, every other number as a gauge — plus
        the two latency summaries and the span ring's health."""
        counted = self.counters.snapshot()
        gauges = {
            name: value
            for name, value in self.metrics().items()
            if name not in counted and not name.startswith(("event.", "sim."))
        }
        return render_prometheus(
            counters=self.counters,
            histograms={
                "read_latency_seconds": self.read_latency,
                "write_latency_seconds": self.write_latency,
            },
            tracer=self.tracer,
            gauges=gauges,
        )
