"""YCSB core workloads A–F against any store facade.

Operation mixes follow the YCSB distribution (Cooper et al., SoCC'10):

====  =========================  =============================
 WL    Mix                        Request distribution
====  =========================  =============================
 A     50% read / 50% update      zipfian
 B     95% read /  5% update      zipfian
 C     100% read                  zipfian
 D     95% read /  5% insert      latest
 E     95% scan /  5% insert      zipfian (scan len uniform 1–100)
 F     50% read / 50% RMW         zipfian
====  =========================  =============================

Throughput is simulated ops/second (ops / simulated elapsed seconds);
latencies are simulated per-op histograms, one per operation type.

The operation *stream* is factored out of the runner: :func:`iter_ops`
deterministically expands a spec + seed into a sequence of :class:`Op`
records, and :func:`apply_op` executes one record against any store
facade. The legacy closed-loop runner (:func:`run_phase`) and the
open-loop serving front-end (:mod:`repro.serve.frontend`) both consume
this stream, so a sharded and an unsharded execution of the same
``(spec, seed)`` see byte-identical operation sequences.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.metrics.latency import LatencyHistogram
from repro.sim.clock import StopwatchRegion
from repro.workloads.generator import (
    LatestGenerator,
    make_key,
    make_request_generator,
    make_value,
)

if TYPE_CHECKING:
    from repro.facade import StoreFacade


@dataclass(frozen=True)
class YCSBSpec:
    """One YCSB workload definition."""

    name: str
    read_proportion: float = 0.0
    update_proportion: float = 0.0
    insert_proportion: float = 0.0
    scan_proportion: float = 0.0
    rmw_proportion: float = 0.0
    request_distribution: str = "zipfian"
    record_count: int = 10_000
    operation_count: int = 10_000
    value_size: int = 100
    max_scan_length: int = 100
    zipf_theta: float = 0.99

    def __post_init__(self) -> None:
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.scan_proportion
            + self.rmw_proportion
        )
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"workload {self.name}: proportions sum to {total}, not 1")

    def scaled(self, records: int, operations: int) -> "YCSBSpec":
        """Same mix at a different scale."""
        return replace(self, record_count=records, operation_count=operations)


WORKLOAD_A = YCSBSpec("A", read_proportion=0.5, update_proportion=0.5)
WORKLOAD_B = YCSBSpec("B", read_proportion=0.95, update_proportion=0.05)
WORKLOAD_C = YCSBSpec("C", read_proportion=1.0)
WORKLOAD_D = YCSBSpec(
    "D", read_proportion=0.95, insert_proportion=0.05, request_distribution="latest"
)
WORKLOAD_E = YCSBSpec("E", scan_proportion=0.95, insert_proportion=0.05)
WORKLOAD_F = YCSBSpec("F", read_proportion=0.5, rmw_proportion=0.5)

ALL_WORKLOADS = {w.name: w for w in [WORKLOAD_A, WORKLOAD_B, WORKLOAD_C, WORKLOAD_D, WORKLOAD_E, WORKLOAD_F]}

OP_KINDS = ("read", "update", "insert", "scan", "rmw")


@dataclass(frozen=True)
class Op:
    """One deterministic YCSB operation.

    ``value`` is the full payload for updates/inserts and the *suffix*
    payload for read-modify-writes (see :func:`apply_op`); ``limit`` is
    the scan length for scans and the kept-prefix length for RMWs.
    """

    kind: str  # one of OP_KINDS
    key: bytes
    value: bytes = b""
    limit: int = 0


def iter_ops(spec: YCSBSpec, *, seed: int = 42) -> Iterator[Op]:
    """Expand ``spec`` into its deterministic operation stream.

    Consumes randomness in exactly the order the original closed-loop
    runner did (mix draw, then request-key draw, then scan-length draw),
    so a given ``(spec, seed)`` always yields the same byte-identical
    sequence regardless of which runner executes it.
    """
    import random

    rng = random.Random(seed)
    request = make_request_generator(
        spec.request_distribution, spec.record_count, theta=spec.zipf_theta, seed=seed
    )
    insert_cursor = spec.record_count
    for op_index in range(spec.operation_count):
        r = rng.random()
        if r < spec.read_proportion:
            yield Op("read", make_key(request.next()))
        elif r < spec.read_proportion + spec.update_proportion:
            yield Op(
                "update", make_key(request.next()), make_value(op_index, spec.value_size)
            )
        elif r < spec.read_proportion + spec.update_proportion + spec.insert_proportion:
            key = make_key(insert_cursor)
            insert_cursor += 1
            if isinstance(request, LatestGenerator):
                request.set_count(insert_cursor)
            yield Op("insert", key, make_value(insert_cursor, spec.value_size))
        elif (
            r
            < spec.read_proportion
            + spec.update_proportion
            + spec.insert_proportion
            + spec.scan_proportion
        ):
            begin = make_key(request.next())
            length = rng.randint(1, spec.max_scan_length)
            yield Op("scan", begin, limit=length)
        else:  # read-modify-write
            yield Op(
                "rmw",
                make_key(request.next()),
                make_value(op_index, spec.value_size // 2),
                limit=spec.value_size // 2,
            )


def apply_op(store: Any, op: Op) -> Any:
    """Execute one :class:`Op` against a store facade.

    Returns the operation's outcome: the value (or None) for reads, the
    result list for scans, None for writes. Callers hash outcomes via
    :func:`outcome_digest_update` to compare executions.
    """
    if op.kind == "read":
        return store.get(op.key)
    if op.kind == "update" or op.kind == "insert":
        store.put(op.key, op.value)
        return None
    if op.kind == "scan":
        return store.scan(op.key, None, limit=op.limit)
    if op.kind == "rmw":
        old = store.get(op.key) or b""
        store.put(op.key, old[: op.limit] + op.value)
        return None
    raise ValueError(f"unknown op kind {op.kind!r}")


def outcome_digest_update(hasher: Any, op: Op, outcome: Any) -> None:
    """Fold one op's outcome into a running hash (sharded-vs-unsharded
    equivalence checks hash every read value and scan result)."""
    hasher.update(op.kind.encode())
    hasher.update(op.key)
    if op.kind == "read":
        hasher.update(b"\x00" if outcome is None else b"\x01" + outcome)
    elif op.kind == "scan":
        for key, value in outcome:
            hasher.update(key)
            hasher.update(value)


@dataclass
class YCSBResult:
    """Outcome of one workload run."""

    workload: str
    store: str
    operations: int
    elapsed_seconds: float
    op_counts: dict[str, int] = field(default_factory=dict)
    read_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    update_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    scan_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    rmw_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    found: int = 0
    not_found: int = 0

    def latency_for(self, kind: str) -> LatencyHistogram:
        """The histogram an op kind records into (scan and RMW get their
        own tails; inserts share the update histogram)."""
        if kind == "read":
            return self.read_latency
        if kind in ("update", "insert"):
            return self.update_latency
        if kind == "scan":
            return self.scan_latency
        if kind == "rmw":
            return self.rmw_latency
        raise ValueError(f"unknown op kind {kind!r}")

    @property
    def throughput(self) -> float:
        """Simulated operations per simulated second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.operations / self.elapsed_seconds


def load_phase(store: StoreFacade, spec: YCSBSpec, *, sync: bool = True) -> None:
    """Insert ``record_count`` records (the YCSB load phase)."""
    for i in range(spec.record_count):
        store.put(make_key(i), make_value(i, spec.value_size), sync=sync)
    store.flush()


def run_phase(store: StoreFacade, spec: YCSBSpec, *, seed: int = 42) -> YCSBResult:
    """Execute the transaction phase closed-loop; returns simulated-time
    results. Consumes the same :func:`iter_ops` stream as the open-loop
    front-end, one op at a time with no think time."""
    result = YCSBResult(workload=spec.name, store=store.name, operations=spec.operation_count, elapsed_seconds=0.0)
    counts = dict.fromkeys(OP_KINDS, 0)

    start = store.clock.now
    for op in iter_ops(spec, seed=seed):
        with StopwatchRegion(store.clock) as sw:
            outcome = apply_op(store, op)
        result.latency_for(op.kind).record(sw.elapsed)
        if op.kind == "read":
            if outcome is None:
                result.not_found += 1
            else:
                result.found += 1
        counts[op.kind] += 1
    result.elapsed_seconds = store.clock.now - start
    result.op_counts = counts
    return result


def run_workload(store: StoreFacade, spec: YCSBSpec, *, seed: int = 42, load: bool = True) -> YCSBResult:
    """Convenience: load phase (optional) then transaction phase."""
    if load:
        load_phase(store, spec)
    return run_phase(store, spec, seed=seed)
