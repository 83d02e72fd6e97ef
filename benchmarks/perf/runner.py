"""One workload, start to finish: set-up, measured loop, oracle, metrics.

Two kinds of run share the set-up and the op stream:

* the **measured** run times every op on both clocks (``perf_counter`` and
  the store's simulated clock) with no profiler attached, checks each
  answer against a model outside the timed interval, and reads the
  store's public counters before and after;
* the **traced** run replays the first quarter of the same stream on a
  fresh store under :mod:`cProfile` and folds the profile into layers
  (:mod:`benchmarks.perf.layers`).

Wall time on a shared 2-core sandbox is not steady, in two ways. The host's
speed changes: the same pure-Python loop takes 0.8× to 1.3× its usual time
for seconds on end, and CPU time moves with it, so it is not scheduling. The
measured loop therefore times a fixed loop (:func:`spin`) every 20 ms,
between ops, and scales each op's wall time to the speed the host had around
it (:func:`to_reference_speed`). And episodes of slow page faults hit
memory-heavy ops without touching that loop, so a measured run is done on
two identical replicas and each op counts with the lesser of its two times
(:func:`run_measured`). ``wall_ops_s`` and ``wall_p50_us`` are on that
steadied clock; ``wall_raw_ops_s`` is one replica's unscaled figure.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import random
import resource
import statistics
import sys
import traceback
from bisect import bisect_left, insort
from time import perf_counter
from typing import Any

from repro.bench.harness import make_store
from repro.lsm.check import check_db
from repro.workloads.generator import make_key, make_value
from repro.workloads.ycsb import Op, apply_op, iter_ops, load_phase

from benchmarks.perf.layers import LAYERS, fold_profile
from benchmarks.perf.stats import percentile, samples_beyond, supported_percentile
from benchmarks.perf.workloads import Workload

REPLICAS = 2
"""Times a measured run repeats set-up and measured loop on the same inputs."""

TRACED_SHARE = 0.25
"""Share of the op stream the profiled run replays (profiling costs ≈ 3×)."""

SPIN_ITERATIONS = 10_000
SPIN_EVERY_S = 0.02
REFERENCE_SPIN_S = 440e-6
"""What :func:`spin` takes on the seed commit's host in its usual state
(2 cores, CPython 3.11). Scaled wall times read as that host's times."""

SPACE_SAMPLES = 200
"""Points at which stored bytes are read during the measured loop;
``space_amp`` is their mean, since one reading depends on whether a
compaction has just removed its inputs."""

KIND_OF_OP = {"read": "get", "update": "put", "insert": "put", "scan": "scan"}
_RAISED = object()


class Model:
    """The answer oracle: a dict plus its keys in sorted order."""

    def __init__(self, records: int, value_size: int) -> None:
        self.values = {make_key(i): make_value(i, value_size) for i in range(records)}
        self.keys = sorted(self.values)
        self.live_bytes = sum(len(k) + len(v) for k, v in self.values.items())

    def expected(self, op: Op) -> Any:
        """Apply ``op`` to the model and return what the store must answer."""
        if op.kind == "read":
            return self.values.get(op.key)
        if op.kind == "scan":
            first = bisect_left(self.keys, op.key)
            return [(k, self.values[k]) for k in self.keys[first : first + op.limit]]
        if op.kind in ("update", "insert"):
            old = self.values.get(op.key)
            if old is None:
                insort(self.keys, op.key)
                self.live_bytes += len(op.key)
            else:
                self.live_bytes -= len(old)
            self.live_bytes += len(op.value)
            self.values[op.key] = op.value
            return None
        raise ValueError(f"op kind {op.kind!r} has no model")


def set_up(workload: Workload, seed: int, n_ops: int) -> tuple[Any, list[Op], float]:
    """Build, load and warm a store and generate the op stream.

    Returns ``(store, ops, wall seconds)``. Only ``seed`` varies the inputs;
    the store sees the loaded records and the generated ops, nothing else.
    """
    started = perf_counter()
    spec = workload.spec.scaled(workload.spec.record_count, n_ops)
    store = make_store("rocksmash", workload.knobs)
    load_phase(store, spec)
    if workload.warm:
        order = list(range(spec.record_count))
        random.Random(seed).shuffle(order)
        for index in order:
            store.get(make_key(index))
    ops = list(iter_ops(spec, seed=seed))
    return store, ops, perf_counter() - started


def spin() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed right now."""
    started = perf_counter()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i * i
    return perf_counter() - started


def to_reference_speed(wall: list[float], marks: list[tuple[int, float]]) -> list[float]:
    """Scale per-op wall times by the host speed measured around them.

    ``marks`` are ``(op index, spin seconds)`` in order, the first at 0 and
    the last at ``len(wall)``. A running median of five spins drops a
    sample an interrupt landed in; ops between two marks are scaled by
    ``REFERENCE_SPIN_S`` over the mean of the two.
    """
    spins = [seconds for _, seconds in marks]
    smooth = [statistics.median(spins[max(0, i - 2) : i + 3]) for i in range(len(spins))]
    scaled: list[float] = []
    for (first, _), (last, _), before, after in zip(marks, marks[1:], smooth, smooth[1:]):
        factor = REFERENCE_SPIN_S / ((before + after) / 2)
        scaled.extend(seconds * factor for seconds in wall[first:last])
    return scaled


def observe(store: Any) -> dict[str, float]:
    """Every public count the store keeps, flattened into one dict."""
    db = store.db
    seen: dict[str, float] = dict(store.counters.snapshot())
    seen.update({f"event.{k}": v for k, v in store.tracer.event_counts.items()})
    seen.update({f"sim.{k}": v for k, v in store.tracer.totals.as_dict().items()})
    seen.update({f"pcache.{k}": v for k, v in dataclasses.asdict(store.pcache.stats).items()})
    seen.update({f"compaction.{k}": v for k, v in dataclasses.asdict(db.compaction_stats).items()})
    seen.update(db.bloom_stats)
    seen["block_cache.hits"] = db.block_cache.hits
    seen["block_cache.misses"] = db.block_cache.misses
    seen["flushes"] = db.flush_count
    seen["demotions"] = store.placement.demotions
    seen["prewarmed_blocks"] = store.heat.prewarmed_blocks
    return seen


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _us(seconds: float) -> float:
    return seconds * 1e6


def _tail(sorted_samples: list[float], p: float) -> float:
    """p-th percentile, or 0 when fewer than ten samples lie beyond it."""
    if samples_beyond(len(sorted_samples), p) < 10:
        return 0.0
    return percentile(sorted_samples, p)


@dataclasses.dataclass
class Sample:
    """What one pass over the op stream recorded."""

    wall: list[float]
    """Per-op wall seconds as read."""
    scaled: list[float]
    """The same at reference host speed."""
    sim: list[float]
    space: list[float]
    spins: list[float]
    failed: int
    rows: int
    sim_elapsed: float
    before: dict[str, float]
    after: dict[str, float]


def measure(store: Any, ops: list[Op], model: Model) -> Sample:
    """The measured loop: time every op on both clocks, check every answer
    (outside the timed interval) and read the store's counters around it."""
    before = observe(store)
    # Objects that exist now (model, op list, loaded store) are not garbage;
    # keep the collector from rescanning them inside timed intervals.
    gc.collect()
    gc.freeze()
    clock = store.clock
    wall: list[float] = []
    sim: list[float] = []
    space: list[float] = []
    space_every = max(1, len(ops) // SPACE_SAMPLES)
    failed = rows = 0
    sim_started = clock.now
    marks = [(0, spin())]
    last_spin = perf_counter()
    for index, op in enumerate(ops, start=1):
        sim_0 = clock.now
        wall_0 = perf_counter()
        try:
            outcome = apply_op(store, op)
        except Exception:
            if not failed:
                traceback.print_exc(file=sys.stderr)
            outcome = _RAISED
        wall_1 = perf_counter()
        wall.append(wall_1 - wall_0)
        sim.append(clock.now - sim_0)
        if outcome != model.expected(op):
            failed += 1
        elif op.kind == "scan":
            rows += len(outcome)
        if index % space_every == 0:
            space.append((store.local_bytes() + store.cloud_bytes()) / model.live_bytes)
        if wall_1 - last_spin >= SPIN_EVERY_S:
            marks.append((index, spin()))
            last_spin = perf_counter()
    marks.append((len(ops), spin()))
    sim_elapsed = clock.now - sim_started
    gc.unfreeze()
    return Sample(
        wall=wall,
        scaled=to_reference_speed(wall, marks),
        sim=sim,
        space=space,
        spins=[seconds for _, seconds in marks],
        failed=failed,
        rows=rows,
        sim_elapsed=sim_elapsed,
        before=before,
        after=observe(store),
    )


def run_measured(
    workload: Workload, seed: int, seconds: float, *, replicas: int = REPLICAS
) -> dict[str, Any]:
    """The untraced run: end-to-end metrics, counts, guards, correctness.

    The whole thing — set-up and measured loop — is done ``replicas`` times
    on identical inputs. Simulated figures must come out identical (checked);
    each op's wall time is the least of its replicas, because what disturbs
    a shared host only ever slows an op down, and ``setup_s`` is the median.
    """
    spec = workload.spec
    n_ops = workload.ops_for(seconds)
    setup_times = []
    samples: list[Sample] = []
    for _ in range(replicas):
        store = ops = model = None  # free the previous replica before building the next
        store, ops, elapsed = set_up(workload, seed, n_ops)
        setup_times.append(elapsed)
        model = Model(spec.record_count, spec.value_size)
        loaded_bytes = model.live_bytes
        samples.append(measure(store, ops, model))
    sample = samples[-1]
    failed = sum(s.failed for s in samples) + sum(s.sim != sample.sim for s in samples)
    best = [min(times) for times in zip(*(s.scaled for s in samples))]

    after = sample.after
    delta = {k: v - sample.before.get(k, 0) for k, v in after.items()}
    put_bytes = sum(len(op.key) + len(op.value) for op in ops if KIND_OF_OP[op.kind] == "put")
    cloud_ops = sum(v for k, v in after.items() if k.startswith("cloud.") and k.endswith("_ops"))
    facade_ops = spec.record_count * (2 if workload.warm else 1) + n_ops
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_ops_s": n_ops / sum(best),
        "wall_p50_us": _us(statistics.median(best)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_ops_s": n_ops / sample.sim_elapsed,
        # Store lifetime, not measured phase: never 0 on read-only workloads.
        "write_amp": (after["local.write_bytes"] + after.get("cloud.put_bytes", 0))
        / (loaded_bytes + put_bytes),
        "space_amp": statistics.fmean(sample.space),
        "cloud_req_per_kop": 1000 * cloud_ops / facade_ops,
    }

    by_kind: dict[str, tuple[list[float], list[float]]] = {k: ([], []) for k in ("get", "put", "scan")}
    for op, wall_s, sim_s in zip(ops, best, sample.sim):
        kind_wall, kind_sim = by_kind[KIND_OF_OP[op.kind]]
        kind_wall.append(wall_s)
        kind_sim.append(sim_s)
    counts = _counts(store, delta, n_ops, sorted(sample.sim), by_kind)
    counts["wall_raw_ops_s"] = n_ops / sum(sample.wall)
    counts["host.spin_us"] = _us(statistics.median(sample.spins))
    guards = _guards(
        workload.name, counts, puts=len(by_kind["put"][0]), scans=len(by_kind["scan"][0]), rows=sample.rows
    )

    # Durability: a crash drops every unsynced byte; each acknowledged
    # (sync=True) write must still be readable afterwards.
    attempted = n_ops * replicas
    counts["mash.xwal.recover_sim_ms"] = counts["mash.xwal.recover_wall_ms"] = 0.0
    if workload.crash_check:
        wall_0 = perf_counter()
        store = store.reopen(crash=True)
        counts["mash.xwal.recover_wall_ms"] = (perf_counter() - wall_0) * 1e3
        counts["mash.xwal.recover_sim_ms"] = store.last_recovery_seconds * 1e3
        attempted += len(model.values)
        failed += sum(store.get(k) != v for k, v in model.values.items())

    report = check_db(store.env, store.config.db_prefix, store.config.options)
    for message in report.errors:
        print(f"check_db: {message}", file=sys.stderr)
    failed += len(report.errors) + sum(not g["ok"] for g in guards.values())

    return {
        "ops": n_ops,
        "samples": {
            "highest_supported_percentile": supported_percentile(n_ops),
            **{kind: len(kind_wall) for kind, (kind_wall, _) in by_kind.items()},
        },
        "attempted": attempted,
        "failed": failed,
        "guards": guards,
        "end_to_end": end_to_end,
        "counts": counts,
        "wall_per_op": sample.wall,
    }


def _counts(
    store: Any,
    delta: dict[str, float],
    n_ops: int,
    sim_sorted: list[float],
    by_kind: dict[str, tuple[list[float], list[float]]],
) -> dict[str, float]:
    """Per-layer metrics that come from counters and per-op samples
    (measured-phase deltas), not from the profile."""
    block_reads = {
        source: delta.get(f"event.{source}", 0)
        for source in ("dram_hit", "pcache_hit", "readahead_hit", "local_read", "cloud_get")
    }
    all_block_reads = sum(block_reads.values())
    levels = store.db.level_summary()

    def per_kop(counter: str) -> float:
        return 1000 * delta.get(counter, 0) / n_ops

    def per_op(counter: str) -> float:
        return delta.get(counter, 0) / n_ops

    def hit_ratio(prefix: str) -> float:
        return _ratio(delta[f"{prefix}hits"], delta[f"{prefix}hits"] + delta[f"{prefix}misses"])

    counts = {
        "sim_p50_us": _us(percentile(sim_sorted, 50)),
        "sim_p99_us": _us(_tail(sim_sorted, 99)),
        "lsm.cache.block_hit_ratio": hit_ratio("block_cache."),
        "mash.pcache.data_hit_ratio": hit_ratio("pcache.data_"),
        "mash.pcache.meta_hit_ratio": hit_ratio("pcache.meta_"),
        "mash.pcache.admissions": delta["pcache.admissions"],
        "mash.pcache.evictions": delta["pcache.evictions"],
        "util.bloom.useful_ratio": _ratio(delta["bloom_useful"], delta["bloom_checked"]),
        "util.bloom.false_positive_ratio": _ratio(
            delta["bloom_false_positive"], delta["bloom_false_positive"] + delta["bloom_useful"]
        ),
        "lsm.cache.dram_share": _ratio(block_reads["dram_hit"], all_block_reads),
        "mash.pcache.hit_share": _ratio(block_reads["pcache_hit"], all_block_reads),
        "mash.readahead.hit_share": _ratio(block_reads["readahead_hit"], all_block_reads),
        "storage.local.read_share": _ratio(block_reads["local_read"], all_block_reads),
        "storage.cloud.get_share": _ratio(block_reads["cloud_get"], all_block_reads),
        "storage.cloud.get_per_kop": per_kop("cloud.get_ops"),
        "storage.cloud.put_per_kop": per_kop("cloud.put_ops"),
        "storage.cloud.get_bytes_per_op": per_op("cloud.get_bytes"),
        "storage.cloud.retries": delta.get("cloud.retries", 0),
        "storage.local.read_per_kop": per_kop("local.read_ops"),
        "storage.local.read_bytes_per_op": per_op("local.read_bytes"),
        "storage.local.write_bytes_per_op": per_op("local.write_bytes"),
        "storage.local.sync_per_kop": per_kop("local.sync_ops"),
        "lsm.db.flushes": delta["flushes"],
        "lsm.compaction.count": delta["compaction.compactions"],
        "lsm.compaction.trivial_moves": delta["compaction.trivial_moves"],
        "lsm.compaction.bytes_read": delta["compaction.bytes_read"],
        "lsm.compaction.bytes_written": delta["compaction.bytes_written"],
        "lsm.compaction.entries_dropped": delta["compaction.entries_dropped"],
        "mash.placement.demotions": delta["demotions"],
        "mash.layout.prewarmed_blocks": delta["prewarmed_blocks"],
        "lsm.version.sst_bytes": sum(size for _, _, size in levels),
        "lsm.version.levels_populated": len(levels),
        "obs.sim_local_us_per_op": _us(per_op("sim.local")),
        "obs.sim_cloud_us_per_op": _us(per_op("sim.cloud")),
        "obs.sim_cpu_us_per_op": _us(per_op("sim.cpu")),
    }
    for kind, (kind_wall, kind_sim) in by_kind.items():
        kind_sim = sorted(kind_sim)
        counts[f"facade.{kind}.wall_p50_us"] = _us(statistics.median(kind_wall)) if kind_wall else 0.0
        counts[f"facade.{kind}.sim_p50_us"] = _us(percentile(kind_sim, 50)) if kind_sim else 0.0
        counts[f"facade.{kind}.sim_p99_us"] = _us(_tail(kind_sim, 99))
    return counts


def _guards(name: str, counts: dict[str, float], *, puts: int, scans: int, rows: int) -> dict[str, dict[str, Any]]:
    """Is the workload still stressing the layer it is here for? Each guard
    is a rate, so it holds or fails the same way at any run length."""
    checks: list[tuple[str, float, bool]] = []
    if name == "read_local":
        gets = counts["storage.cloud.get_per_kop"]
        checks.append(("cloud_gets_per_kop == 0", gets, gets == 0))
    if name == "read_cloud":
        gets = counts["storage.cloud.get_per_kop"]
        hits = counts["lsm.cache.block_hit_ratio"]
        checks.append(("cloud_gets_per_kop >= 800", gets, gets >= 800))
        checks.append(("block_hit_ratio < 0.1", hits, hits < 0.1))
    if name in ("fill_random", "mixed_a"):
        compactions = 1000 * _ratio(counts["lsm.compaction.count"], puts)
        levels = counts["lsm.version.levels_populated"]
        checks.append(("compactions_per_1000_puts >= 5", compactions, compactions >= 5))
        checks.append(("levels_populated >= 3", levels, levels >= 3))
    if name == "scan_e":
        checks.append(("rows_per_scan >= 30", _ratio(rows, scans), _ratio(rows, scans) >= 30))
    return {label: {"value": value, "ok": ok} for label, value, ok in checks}


def run_traced(workload: Workload, seed: int, seconds: float, untraced_wall: list[float]) -> dict[str, Any]:
    """The profiled run: per-layer call counts, self and inclusive time.

    ``untraced_wall`` is the measured run's per-op wall time for the same
    stream; its first quarter is the base of ``trace.overhead_ratio``.
    """
    n_ops = max(1, int(workload.ops_for(seconds) * TRACED_SHARE))
    store, ops, _ = set_up(workload, seed, n_ops)
    model = Model(workload.spec.record_count, workload.spec.value_size)
    gc.collect()
    gc.freeze()
    profiler = cProfile.Profile()
    started = perf_counter()
    profiler.enable()
    outcomes = [apply_op(store, op) for op in ops]
    profiler.disable()
    elapsed = perf_counter() - started
    gc.unfreeze()
    failed = sum(outcome != model.expected(op) for op, outcome in zip(ops, outcomes))

    table = fold_profile(profiler.getstats())
    layers = table["layers"]
    functions = {f["function"]: f for f in table["functions"]}
    nothing = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}

    def incl_us_per(label: str, calls: int | None = None) -> float:
        row = functions.get(label, nothing)
        calls = row["calls"] if calls is None else calls
        return _us(row["incl_s"]) / calls if calls else 0.0

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        row = layers.get(layer, nothing)
        metrics[f"{layer}.calls_per_op"] = row["calls"] / n_ops
        metrics[f"{layer}.self_us_per_op"] = _us(row["self_s"]) / n_ops
    metrics["lsm.db.get_incl_us"] = incl_us_per("repro/lsm/db.py:DB.get")
    metrics["lsm.db.write_incl_us"] = incl_us_per("repro/lsm/db.py:DB.write")
    # DB.scan is a generator and the profiler counts every resume as a
    # call, so divide by scans issued instead.
    metrics["lsm.db.scan_incl_us"] = incl_us_per("repro/lsm/db.py:DB.scan", sum(op.kind == "scan" for op in ops))
    metrics["lsm.db.flush_incl_share"] = functions.get("repro/lsm/db.py:DB._flush_memtable", nothing)["incl_s"] / elapsed
    metrics["obs.span_incl_share"] = functions.get("repro/obs/trace.py:Tracer.span", nothing)["incl_s"] / elapsed
    for layer in ("lsm.compaction", "mash.placement", "mash.pcache", "storage.local", "storage.cloud"):
        metrics[f"{layer}.incl_share"] = layers.get(layer, nothing)["incl_s"] / elapsed
    metrics["python.total_calls_per_op"] = sum(row["calls"] for row in layers.values()) / n_ops
    metrics["trace.overhead_ratio"] = elapsed / sum(untraced_wall[:n_ops])

    unmapped = layers.get("other", nothing)["calls"]
    return {
        "ops": n_ops,
        "elapsed_s": elapsed,
        "failed": failed + (1 if unmapped else 0),
        "guards": {"unmapped_calls == 0": {"value": unmapped, "ok": unmapped == 0}},
        "metrics": metrics,
        "table": table,
    }
