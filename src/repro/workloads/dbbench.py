"""db_bench-style microbenchmarks (the RocksDB tool the paper uses).

Each suite runs against any store facade and reports simulated throughput
and latency. Value sizes/counts default to scaled-down versions of the
usual db_bench parameters (16-byte keys, 100–400-byte values).
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.metrics.latency import LatencyHistogram
from repro.sim.clock import StopwatchRegion
from repro.workloads.generator import make_key, make_value

if TYPE_CHECKING:
    from repro.facade import StoreFacade


@dataclass
class BenchResult:
    """Outcome of one microbenchmark."""

    name: str
    store: str
    operations: int
    elapsed_seconds: float
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    found: int = 0

    @property
    def ops_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.operations / self.elapsed_seconds


def _timed_loop(
    store: StoreFacade,
    name: str,
    n: int,
    body: Callable[[int, BenchResult], None],
) -> BenchResult:
    result = BenchResult(name=name, store=store.name, operations=n, elapsed_seconds=0.0)
    start = store.clock.now
    for i in range(n):
        with StopwatchRegion(store.clock) as sw:
            body(i, result)
        result.latency.record(sw.elapsed)
    result.elapsed_seconds = store.clock.now - start
    return result


def fillseq(store: StoreFacade, n: int, value_size: int = 100) -> BenchResult:
    """Sequential-key writes."""
    return _timed_loop(
        store, "fillseq", n, lambda i, _r: store.put(make_key(i), make_value(i, value_size))
    )


def fillrandom(store: StoreFacade, n: int, value_size: int = 100, *, seed: int = 1) -> BenchResult:
    """Random-key writes over a keyspace of size n."""
    rng = random.Random(seed)

    def body(i: int, _r: BenchResult) -> None:
        k = rng.randrange(n)
        store.put(make_key(k), make_value(i, value_size))

    return _timed_loop(store, "fillrandom", n, body)


def readseq(store: StoreFacade, n: int) -> BenchResult:
    """One full sequential scan, reported per entry."""
    result = BenchResult(name="readseq", store=store.name, operations=n, elapsed_seconds=0.0)
    start = store.clock.now
    got = store.scan(None, None, limit=n)
    result.elapsed_seconds = store.clock.now - start
    result.found = len(got)
    return result


def readrandom(
    store: StoreFacade, n: int, keyspace: int, *, distribution: str = "uniform", seed: int = 2
) -> BenchResult:
    """Random point reads; ``distribution`` in {uniform, zipfian}."""
    from repro.workloads.generator import make_request_generator

    gen = make_request_generator(distribution, keyspace, seed=seed)

    def body(_i: int, result: BenchResult) -> None:
        if store.get(make_key(gen.next())) is not None:
            result.found += 1

    return _timed_loop(store, f"readrandom({distribution})", n, body)


def seekrandom(store: StoreFacade, n: int, keyspace: int, scan_length: int = 10, *, seed: int = 3) -> BenchResult:
    """Random seeks followed by short scans."""
    rng = random.Random(seed)

    def body(_i: int, result: BenchResult) -> None:
        begin = make_key(rng.randrange(keyspace))
        got = store.scan(begin, None, limit=scan_length)
        result.found += len(got)

    return _timed_loop(store, f"seekrandom({scan_length})", n, body)


def fill_database(store: StoreFacade, n: int, value_size: int = 100, *, seed: int = 1) -> None:
    """Populate a store with n random-order records and flush (setup helper)."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        store.put(make_key(i), make_value(i, value_size))
    store.flush()
