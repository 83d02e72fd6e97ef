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

from collections.abc import Callable, Generator, Iterator
from contextlib import ExitStack, closing, contextmanager

from repro.lsm.db import DB, Snapshot
from repro.lsm.write_batch import WriteBatch
from repro.metrics.counters import CounterSet
from repro.metrics.latency import LatencyHistogram
from repro.obs.prom import render_prometheus
from repro.obs.trace import Tracer
from repro.sim.clock import SimClock, StopwatchRegion
from repro.storage.cloud import CloudObjectStore
from repro.storage.cost import CostModel, MonthlyBill
from repro.storage.local import LocalDevice


def take_rows(
    rows: Generator[tuple[bytes, bytes], None, None], limit: int | None
) -> list[tuple[bytes, bytes]]:
    """Take up to ``limit`` rows of a scan and close its generator.

    Closing here, not at garbage collection, makes a limited scan's cleanup
    (version unpin, prefetch-pipeline finish + waste accounting) run
    deterministically inside the caller's span.
    """
    out: list[tuple[bytes, bytes]] = []
    with closing(rows):
        for i, kv in enumerate(rows):
            if limit is not None and i >= limit:
                break
            out.append(kv)
    return out


class StoreFacade:
    """KV operations timed on the simulated clock, plus reporting.

    Subclasses must set (typically in ``__init__``): ``db``, ``clock``,
    ``counters``, ``local_device``, ``cloud_store`` (may be None),
    ``cost_model``, and a class-level ``name``. ``_init_facade`` must be
    called after ``clock``/``local_device``/``cloud_store`` exist so the
    tracer can be wired onto the devices.
    """

    name = "store"
    db: DB
    clock: SimClock
    counters: CounterSet
    local_device: LocalDevice
    cloud_store: CloudObjectStore | None
    cost_model: CostModel

    def _init_facade(self) -> None:
        self.read_latency = LatencyHistogram()
        self.write_latency = LatencyHistogram()
        self.op_hook: Callable[[str, int], None] | None = None
        """Called as ``op_hook(kind, nbytes)`` after every timed operation
        (kind = facade method name, nbytes = written value bytes for write
        kinds). The tuning controller (:mod:`repro.tune`) observes the
        workload mix through this — it is *outside* the op's stopwatch, so
        an evaluation's CPU charge lands between requests, not inside one."""
        self._request_clock: SimClock | None = None
        self.tracer = Tracer(self.clock)
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

    def _note_op(self, kind: str, nbytes: int = 0) -> None:
        if self.op_hook is not None:
            self.op_hook(kind, nbytes)

    def put(self, key: bytes, value: bytes, *, sync: bool = True) -> None:
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("put"):
            self.db.put(key, value, sync=sync)
        self.write_latency.record(sw.elapsed)
        self._note_op("put", len(value))

    def delete(self, key: bytes, *, sync: bool = True) -> None:
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("delete"):
            self.db.delete(key, sync=sync)
        self.write_latency.record(sw.elapsed)
        self._note_op("delete")

    def write(self, batch: WriteBatch, *, sync: bool = True) -> None:
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("write"):
            self.db.write(batch, sync=sync)
        self.write_latency.record(sw.elapsed)
        self._note_op("write", batch.byte_size())

    def get(self, key: bytes, *, snapshot: Snapshot | None = None) -> bytes | None:
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("get"):
            value = self.db.get(key, snapshot=snapshot)
        self.read_latency.record(sw.elapsed)
        self._note_op("get")
        return value

    def multi_get(
        self, keys: list[bytes], *, snapshot: Snapshot | None = None
    ) -> dict[bytes, bytes | None]:
        """Batched point lookups (sequential by default)."""
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span("multi_get"):
            results = self.db.multi_get(keys, snapshot=snapshot)
        self.read_latency.record(sw.elapsed)
        self._note_op("multi_get")
        return results

    def scan(
        self,
        begin: bytes | None = None,
        end: bytes | None = None,
        limit: int | None = None,
        *,
        snapshot: Snapshot | None = None,
        reverse: bool = False,
    ) -> list[tuple[bytes, bytes]]:
        """Range scan over user keys in [begin, end), descending when
        ``reverse`` (then timed and counted as ``scan_reverse``)."""
        kind = "scan_reverse" if reverse else "scan"
        with StopwatchRegion(self.op_clock) as sw, self.tracer.span(kind):
            rows = self.db.scan(begin, end, snapshot=snapshot, reverse=reverse)
            results = take_rows(rows, limit)
        self.read_latency.record(sw.elapsed)
        self._note_op(kind, sum(len(k) + len(v) for k, v in results))
        return results

    def scan_reverse(
        self,
        begin: bytes | None = None,
        end: bytes | None = None,
        limit: int | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Descending-order range scan over user keys in [begin, end)."""
        return self.scan(begin, end, limit, reverse=True)

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

    def dump_metrics(self) -> str:
        """All store metrics in Prometheus text exposition format."""
        return render_prometheus(
            counters=self.counters,
            histograms={
                "read_latency_seconds": self.read_latency,
                "write_latency_seconds": self.write_latency,
            },
            tracer=getattr(self, "tracer", None),
        )
