"""Simulated cloud object store (S3 API subset).

Objects are immutable blobs addressed by string keys. Every request pays the
model's round-trip latency plus transfer time, and is tallied for the cost
model (PUT/GET/DELETE request counts, egress bytes). Ranged GETs are
supported — the table reader and persistent cache fetch individual blocks
without downloading whole SSTables, which is central to RocksMash's read
path. Uploads are whole-object PUTs, so an object is either absent or
complete, and a client crash leaves the cloud as it was.

Transient failures from the attached :class:`FaultInjector` are retried with
capped exponential backoff; backoff time is charged to the simulated clock,
so a flaky cloud visibly slows workloads down rather than silently
succeeding.
"""

from __future__ import annotations

from repro.errors import IOErrorSim, NotFoundError
from repro.metrics.counters import CounterSet
from repro.sim.clock import SimClock
from repro.sim.failure import FaultInjector, RetryPolicy
from repro.sim.latency import LatencyModel, cloud_object_storage

REQUEST_SLOTS = 4
"""Requests one client keeps in flight (``ForkJoinRegion(..., slots=)``): a
compaction's input fetches, and a demotion batch's uploads, queue for these."""


class CloudObjectStore:
    """An in-memory object store with S3-like semantics and accounting."""

    def __init__(
        self,
        clock: SimClock,
        model: LatencyModel | None = None,
        *,
        counters: CounterSet | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.clock = clock
        self.model = model or cloud_object_storage()
        self.counters = counters if counters is not None else CounterSet()
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self._objects: dict[str, bytes] = {}

    # -- request plumbing ---------------------------------------------------

    def _attempt(self, op: str, key: str | None, cost: float) -> None:
        """Charge one request and possibly raise an injected fault.

        Retries up to ``retry.max_attempts`` times; each failed attempt
        charges its cost (the bytes were in flight) plus backoff. The fault
        injector sees the request as ``op(key)``, a label built only when
        one is installed.
        """
        clock = self.clock
        if clock.tracer is not None:
            clock.tracer.count_cloud_op()
        for attempt in range(self.retry.max_attempts):
            clock.advance(cost, "cloud")
            if self.faults is None:
                return
            try:
                self.faults.check(op if key is None else f"{op}({key})")
                return
            except IOErrorSim:
                self.counters.inc("cloud.retries")
                if attempt == self.retry.max_attempts - 1:
                    raise
                backoff = self.retry.backoff(attempt)
                clock.advance(backoff, "cloud")

    # -- object API ---------------------------------------------------------

    def put(self, key: str, data: bytes) -> None:
        """Create or replace object ``key`` (atomic, durable on return)."""
        self._attempt("cloud.put", key, self.model.write_cost(len(data)))
        self._objects[key] = bytes(data)
        self.counters.inc("cloud.put_ops")
        self.counters.inc("cloud.put_bytes", len(data))

    def get(self, key: str) -> bytes:
        """Fetch a whole object."""
        data = self._require(key)
        self._attempt("cloud.get", key, self.model.read_cost(len(data)))
        self.counters.inc("cloud.get_ops")
        self.counters.inc("cloud.get_bytes", len(data))
        return data

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        """Ranged GET: fetch ``length`` bytes at ``offset``.

        Reading past the end returns the available suffix (HTTP Range
        semantics); a wholly out-of-range read returns ``b""`` but still
        pays the request round trip.
        """
        if offset < 0 or length < 0:
            raise ValueError("offset/length must be non-negative")
        data = self._require(key)
        chunk = data[offset : offset + length]
        self._attempt("cloud.get_range", key, self.model.read_cost(len(chunk)))
        self.counters.inc("cloud.get_ops")
        self.counters.inc("cloud.get_bytes", len(chunk))
        return chunk

    def head(self, key: str) -> int:
        """Object size without the body (HEAD); charges one round trip."""
        data = self._require(key)
        self._attempt("cloud.head", key, self.model.read_cost(0))
        self.counters.inc("cloud.head_ops")
        return len(data)

    def exists(self, key: str) -> bool:
        return key in self._objects

    def delete(self, key: str) -> None:
        """Delete an object (idempotent, like S3)."""
        self._attempt("cloud.delete", key, self.model.write_cost(0))
        self._objects.pop(key, None)
        self.counters.inc("cloud.delete_ops")

    def copy(self, src: str, dst: str) -> None:
        """Server-side copy (no egress); checkpoints copy tables with it.

        Billed as one PUT request whose stored bytes count toward
        ``put_bytes`` — the duplicated object occupies real capacity even
        though no bytes crossed the wire (``cloud.copy_bytes`` tracks the
        no-egress portion separately).
        """
        data = self._require(src)
        self._attempt("cloud.copy", src, self.model.write_cost(0))
        self._objects[dst] = data
        self.counters.inc("cloud.put_ops")
        self.counters.inc("cloud.put_bytes", len(data))
        self.counters.inc("cloud.copy_bytes", len(data))

    def list_keys(self, prefix: str = "") -> list[str]:
        """LIST request; charges one round trip per 1000 keys (S3 paging)."""
        keys = sorted(k for k in self._objects if k.startswith(prefix))
        pages = max(1, (len(keys) + 999) // 1000)
        for _ in range(pages):
            self._attempt("cloud.list", None, self.model.read_cost(0))
        self.counters.inc("cloud.list_ops", pages)
        return keys

    def used_bytes(self) -> int:
        """Total stored bytes (for the cost model)."""
        return sum(len(v) for v in self._objects.values())

    def _require(self, key: str) -> bytes:
        data = self._objects.get(key)
        if data is None:
            raise NotFoundError(f"cloud object not found: {key}")
        return data
