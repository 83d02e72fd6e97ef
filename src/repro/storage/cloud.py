"""Simulated cloud object store (S3 API subset).

Objects are immutable blobs addressed by string keys. Every request pays the
model's round-trip latency plus transfer time, and is tallied for the cost
model (PUT/GET/DELETE request counts, egress bytes). Ranged GETs are
supported — the table reader and persistent cache fetch individual blocks
without downloading whole SSTables, which is central to RocksMash's read
path.

Transient failures from the attached :class:`FaultInjector` are retried with
capped exponential backoff; backoff time is charged to the simulated clock,
so a flaky cloud visibly slows workloads down rather than silently
succeeding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import IOErrorSim, NotFoundError
from repro.metrics.counters import CounterSet
from repro.sim.clock import ClockCharged, SimClock
from repro.sim.failure import FaultInjector, RetryPolicy
from repro.sim.latency import LatencyModel, cloud_object_storage

if TYPE_CHECKING:
    from repro.obs.trace import Tracer

REQUEST_SLOTS = 4
"""Requests one client keeps in flight (``ForkJoinRegion(..., slots=)``): a
compaction's input fetches, and a demotion batch's uploads, queue for these."""


class CloudObjectStore(ClockCharged):
    """An in-memory object store with S3-like semantics and accounting."""

    def __init__(
        self,
        clock: SimClock,
        model: LatencyModel | None = None,
        *,
        counters: CounterSet | None = None,
        faults: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.clock = clock
        self.model = model or cloud_object_storage()
        self.counters = counters if counters is not None else CounterSet()
        self.faults = faults
        self.retry = retry or RetryPolicy()
        self.tracer = tracer  # tier attribution; a store facade points it at its own
        self._objects: dict[str, bytes] = {}
        # In-flight multipart uploads: key -> parts received so far. Parts
        # are durable server-side but invisible until complete_multipart;
        # crash() abandons them (S3 would eventually lifecycle them away).
        self._multiparts: dict[str, list[bytes]] = {}

    # -- request plumbing ---------------------------------------------------

    def _attempt(self, op: str, key: str | None, cost: float) -> None:
        """Charge one request and possibly raise an injected fault.

        Retries up to ``retry.max_attempts`` times; each failed attempt
        charges its cost (the bytes were in flight) plus backoff. The fault
        injector sees the request as ``op(key)``, a label built only when
        one is installed.
        """
        if self.tracer is not None:
            self.tracer.count_cloud_op()
        for attempt in range(self.retry.max_attempts):
            self.clock.advance(cost)
            if self.tracer is not None:
                self.tracer.charge("cloud", cost)
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
                self.clock.advance(backoff)
                if self.tracer is not None:
                    self.tracer.charge("cloud", backoff)

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
        """Server-side copy (no egress); used to emulate rename.

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

    # -- multipart upload ----------------------------------------------------

    def upload_part(self, key: str, data: bytes) -> None:
        """Upload one part of a multipart upload (charged, not yet visible).

        S3 semantics: parts are durable server-side but the object does not
        exist until :meth:`complete_multipart`; a crash before completion
        loses the upload. This is how cloud-backed writable files stream.
        """
        self._attempt("cloud.upload_part", key, self.model.write_cost(len(data)))
        self._multiparts.setdefault(key, []).append(bytes(data))
        self.counters.inc("cloud.put_ops")
        self.counters.inc("cloud.put_bytes", len(data))

    def complete_multipart(self, key: str, data: bytes) -> None:
        """Make a multipart object visible. Parts were charged separately."""
        self._attempt("cloud.complete_multipart", key, self.model.write_cost(0))
        self._objects[key] = bytes(data)
        self._multiparts.pop(key, None)
        self.counters.inc("cloud.put_ops")

    def pending_multiparts(self) -> list[str]:
        """Keys with an incomplete multipart upload in flight."""
        return sorted(self._multiparts)

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

    # -- failure semantics ---------------------------------------------------

    def crash(self) -> None:
        """Client crash: abandon every incomplete multipart upload.

        Completed objects are unaffected (the cloud is durable); only
        uploads that never reached :meth:`complete_multipart` vanish, as
        S3 eventually aborts orphaned multipart uploads.
        """
        self._multiparts.clear()

    def _require(self, key: str) -> bytes:
        data = self._objects.get(key)
        if data is None:
            raise NotFoundError(f"cloud object not found: {key}")
        return data
