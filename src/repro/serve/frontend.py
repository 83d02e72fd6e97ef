"""Open-loop request front-end with tail-latency attribution.

The closed-loop YCSB runner issues the next op the instant the previous
one returns, so measured latency can never show queueing — the load adapts
to the store. Real serving does the opposite: clients arrive on their own
schedule whether the store is keeping up or not. This front-end drives the
deterministic YCSB op stream (:func:`repro.workloads.ycsb.iter_ops`)
*open-loop*: arrivals are a Poisson process from a seeded RNG, each
request is served on its own timeline (a request scope on the store's
clock) starting at ``max(arrival, shard busy time)``, and per-op latency
decomposes exactly
into

    latency = queue_wait + service
    queue_wait = start - arrival      (time spent behind earlier requests)
    service    = completion - start   (time the store actually worked)

Shards serve FIFO: a request waits for every shard it touches (scans
scatter), and its completion pushes those shards' busy timelines forward —
including deferred flush/compaction replayed *after* the response, which
is how compaction interference reaches later requests' ``queue_wait``
instead of one victim's service time. A bounded admission queue drops
arrivals when a touched shard already holds ``queue_capacity`` undone
requests, capping the knee instead of letting wait times diverge.

Everything is deterministic: same ``(spec, seeds, rate)`` → same arrival
times, same op stream, same digests, same histograms.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.facade import StoreFacade
from repro.metrics.latency import LatencyHistogram
from repro.sim.clock import SimClock
from repro.workloads.ycsb import OP_KINDS, YCSBSpec, iter_ops, outcome_digest_update


@dataclass(frozen=True)
class FrontendConfig:
    """One open-loop run: offered load, seeds, and admission bound."""

    arrival_rate: float
    """Offered load in ops per simulated second (Poisson intensity)."""

    arrival_seed: int = 7
    op_seed: int = 42
    queue_capacity: int = 0
    """Max undone requests per touched shard before an arrival is dropped;
    0 = unbounded (pure open loop, wait grows without bound past the knee)."""


@dataclass
class ServingResult:
    """Outcome of one open-loop run."""

    workload: str
    store: str
    shards: int
    arrival_rate: float
    operations: int
    completed: int = 0
    dropped: int = 0
    elapsed_seconds: float = 0.0
    queue_wait: LatencyHistogram = field(default_factory=LatencyHistogram)
    service: LatencyHistogram = field(default_factory=LatencyHistogram)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    kind_latency: dict[str, LatencyHistogram] = field(default_factory=dict)
    op_counts: dict[str, int] = field(default_factory=dict)
    dropped_counts: dict[str, int] = field(default_factory=dict)
    maintenance_seconds: float = 0.0
    """Simulated seconds of deferred maintenance replayed after responses."""
    outcome_digest: str = ""

    @property
    def throughput(self) -> float:
        """Completed ops per simulated second (≤ offered ``arrival_rate``)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds


def run_open_loop(
    store: StoreFacade[Any], spec: YCSBSpec, config: FrontendConfig
) -> ServingResult:
    """Drive ``spec``'s op stream at ``config.arrival_rate`` against
    ``store`` (a store, or a sharded node); returns latency decomposition,
    drops, and outcome digest.

    Requests execute in arrival order (deterministic), each on a child
    clock (:meth:`StoreFacade.serve`); overlap between requests on
    *different* shards is what the fork/join timeline models as parallel
    service. With no drops, the outcome digest is independent of shard
    count and arrival rate — state mutations apply in arrival order either
    way.
    """
    if config.arrival_rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {config.arrival_rate}")
    result = ServingResult(
        workload=spec.name,
        store=store.name,
        shards=store.num_shards,
        arrival_rate=config.arrival_rate,
        operations=spec.operation_count,
        kind_latency={kind: LatencyHistogram() for kind in OP_KINDS},
        op_counts=dict.fromkeys(OP_KINDS, 0),
        dropped_counts=dict.fromkeys(OP_KINDS, 0),
    )
    arrivals = random.Random(config.arrival_seed)
    hasher = hashlib.sha256()
    start_time = store.clock.now
    arrival = start_time
    busy = [start_time] * store.num_shards
    outstanding: list[deque[float]] = [deque() for _ in range(store.num_shards)]
    latest_completion = start_time

    for op in iter_ops(spec, seed=config.op_seed):
        arrival += arrivals.expovariate(config.arrival_rate)
        touched = store.shards_touched(op)
        for shard in touched:
            queue = outstanding[shard]
            while queue and queue[0] <= arrival:
                queue.popleft()
        if config.queue_capacity > 0 and any(
            len(outstanding[shard]) >= config.queue_capacity for shard in touched
        ):
            result.dropped += 1
            result.dropped_counts[op.kind] += 1
            continue
        start = max(arrival, max(busy[shard] for shard in touched))
        request_clock = store.clock.child(start)
        outcome, end = store.serve(op, request_clock)
        outcome_digest_update(hasher, op, outcome)
        # Deferred maintenance runs after the response is sent: it extends
        # the shard's busy timeline (felt by later requests as queueing)
        # but not this request's measured latency.
        result.maintenance_seconds += request_clock.now - end
        for shard in touched:
            busy[shard] = request_clock.now
            outstanding[shard].append(end)
        latest_completion = max(latest_completion, request_clock.now)
        result.completed += 1
        result.op_counts[op.kind] += 1
        result.queue_wait.record(start - arrival)
        result.service.record(end - start)
        result.latency.record(end - arrival)
        result.kind_latency[op.kind].record(end - arrival)

    store.clock.join([SimClock(now=latest_completion)])
    result.elapsed_seconds = store.clock.now - start_time
    result.outcome_digest = hasher.hexdigest()
    return result
