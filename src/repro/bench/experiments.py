"""Experiment definitions E1–E23: the reconstructed evaluation (E1–E12)
plus extensions (E13–E23: compression, batched reads, fault injection,
up-tiering, compaction style, the parallel compaction pipeline,
reliability, the tier-attributed read-path anatomy, the scan pipeline,
sharded serving and the blob log).

Each function regenerates one table/figure (see DESIGN.md §3) and returns a
:class:`~repro.bench.report.Table` whose rows are the series the paper
plots. All quantities are *simulated* time/cost (DESIGN.md §4); the
reproduction target is the shape — who wins, by what factor, where the
crossovers are — not absolute numbers.

Scales default small enough for the whole suite to run in minutes; every
function takes ``records``/``operations`` so a longer run can scale up.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace
from functools import partial

from repro.baselines import RocksDBCloudStore
from repro.bench.harness import SYSTEMS, HarnessKnobs, make_store, rocksmash_config
from repro.facade import StoreFacade
from repro.lsm.check import check_db
from repro.mash.store import RocksMashStore, StoreConfig
from repro.bench.report import Table
from repro.workloads import dbbench, ycsb
from repro.workloads.generator import make_key, make_value


# --------------------------------------------------------------------------
# E1 — write microbenchmarks
# --------------------------------------------------------------------------


def e1_write_micro(records: int = 2000, value_size: int = 256) -> Table:
    """Fig E1: fillseq / fillrandom throughput per system."""
    table = Table(
        "E1: write microbenchmarks (simulated Kops/s)",
        ["system", "fillseq", "fillrandom"],
        notes=[
            f"{records} ops, {value_size}B values; writes are WAL-bound:",
            "local WAL ≈ local-only; cloud WAL pays a round trip + re-upload per sync",
        ],
    )
    for system in SYSTEMS:
        store = make_store(system)
        seq = dbbench.fillseq(store, records, value_size)
        store2 = make_store(system)
        rnd = dbbench.fillrandom(store2, records, value_size)
        table.add_row(system, seq.ops_per_second / 1e3, rnd.ops_per_second / 1e3)
    return table


# --------------------------------------------------------------------------
# E2 — read microbenchmarks
# --------------------------------------------------------------------------


def e2_read_micro(records: int = 2500, reads: int = 1200, value_size: int = 256) -> Table:
    """Fig E2: readrandom (uniform & zipfian) + readseq per system."""
    table = Table(
        "E2: read microbenchmarks (simulated Kops/s)",
        ["system", "readrandom-uniform", "readrandom-zipfian", "readseq"],
        notes=[f"{records} records loaded, {reads} reads; caches warm naturally"],
    )
    for system in SYSTEMS:
        store = make_store(system)
        dbbench.fill_database(store, records, value_size)
        uni = dbbench.readrandom(store, reads, records, distribution="uniform")
        zip_ = dbbench.readrandom(store, reads, records, distribution="zipfian")
        seq = dbbench.readseq(store, records)
        table.add_row(
            system,
            uni.ops_per_second / 1e3,
            zip_.ops_per_second / 1e3,
            (seq.found / seq.elapsed_seconds if seq.elapsed_seconds else 0) / 1e3,
        )
    return table


# --------------------------------------------------------------------------
# E3 — YCSB (headline)
# --------------------------------------------------------------------------


def e3_ycsb(records: int = 2500, operations: int = 1500) -> Table:
    """Fig E3 (headline): YCSB A–F throughput for all four systems."""
    table = Table(
        "E3: YCSB throughput (simulated Kops/s)",
        ["system", "A", "B", "C", "D", "E", "F"],
        notes=[
            f"{records} records, {operations} ops per workload, zipfian θ=0.99",
            "paper claim: RocksMash up to ~1.7x the state-of-the-art hybrid",
        ],
    )
    for system in SYSTEMS:
        row = [system]
        for name in "ABCDEF":
            spec = ycsb.ALL_WORKLOADS[name].scaled(records, operations)
            store = make_store(system)
            result = ycsb.run_workload(store, spec)
            row.append(result.throughput / 1e3)
        table.add_row(*row)
    return table


# --------------------------------------------------------------------------
# E4 — read latency percentiles
# --------------------------------------------------------------------------


def e4_latency(records: int = 2500, reads: int = 1500) -> Table:
    """Fig E4: point-read latency percentiles (simulated µs)."""
    table = Table(
        "E4: readrandom latency (simulated microseconds)",
        ["system", "mean", "p50", "p90", "p99"],
        notes=[f"{records} records, {reads} zipfian reads"],
    )
    for system in SYSTEMS:
        store = make_store(system)
        dbbench.fill_database(store, records)
        result = dbbench.readrandom(store, reads, records, distribution="zipfian")
        s = result.latency.summary()
        table.add_row(
            system, s["mean"] * 1e6, s["p50"] * 1e6, s["p90"] * 1e6, s["p99"] * 1e6
        )
    return table


# --------------------------------------------------------------------------
# E5 — metadata space overhead
# --------------------------------------------------------------------------


def e5_metadata_overhead(records: int = 4000, value_size: int = 256) -> Table:
    """Table E5: local bytes needed to keep metadata of cloud tables fast.

    RocksMash pins packed index+filter payloads; rocksdb-cloud must keep
    whole files in its local cache to have their metadata local.
    """
    table = Table(
        "E5: metadata space overhead (bytes of local space per cloud-resident byte)",
        ["system", "cloud_bytes", "local_metadata_bytes", "overhead_%"],
        notes=[
            "RocksMash: packed pinned index+filter region of the persistent cache",
            "rocksdb-cloud: whole-file cache bytes after touching every table once",
        ],
    )
    # RocksMash: pinned metadata region.
    mash = make_store("rocksmash")
    dbbench.fill_database(mash, records, value_size)
    for i in range(0, records, 10):
        mash.get(make_key(i))
    cloud_bytes = mash.placement.cloud_table_bytes()
    meta_bytes = mash.pcache.meta_bytes
    table.add_row(
        "rocksmash", cloud_bytes, meta_bytes, 100.0 * meta_bytes / max(cloud_bytes, 1)
    )
    # rocksdb-cloud: whole-file cache with a budget big enough to hold all.
    rc = make_store("rocksdb-cloud", HarnessKnobs(file_cache_budget_bytes=1 << 30))
    dbbench.fill_database(rc, records, value_size)
    for i in range(0, records, 10):
        rc.get(make_key(i))
    rc_cloud = rc.cloud_bytes()
    rc_local = rc.file_cache.used_bytes
    table.add_row("rocksdb-cloud", rc_cloud, rc_local, 100.0 * rc_local / max(rc_cloud, 1))
    return table


# --------------------------------------------------------------------------
# E6 — recovery time
# --------------------------------------------------------------------------


# Modelled replay CPU per WAL record during recovery. Real WAL replay runs
# at roughly 20–100k records/s per thread (parse + memtable insert), i.e.
# 10–50 µs/record; 25 µs makes replay — the phase the xWAL parallelizes —
# dominate recovery at our scaled WAL sizes just as it does at real sizes.
_RECOVERY_APPLY_COST = 25e-6


def _recovery_store(shards: int) -> RocksMashStore:
    # A 64 MiB write buffer keeps the whole workload in the WAL.
    config = rocksmash_config(HarnessKnobs(write_buffer_size=64 << 20))
    xwal = replace(config.xwal, num_shards=shards, apply_cost_per_record=_RECOVERY_APPLY_COST)
    return RocksMashStore.create(replace(config, xwal=xwal))


def _all_cloud(knobs: HarnessKnobs | None = None) -> StoreConfig:
    """The harness's RocksMash config with every table below L0 demoted."""
    config = rocksmash_config(knobs)
    return replace(config, placement=replace(config.placement, cloud_level=1))


def _crash_recovery_seconds(shards: int, records: int) -> float:
    store = _recovery_store(shards)
    for i in range(records):
        store.put(make_key(i), make_value(i, 256))
    recovered = store.reopen(crash=True)
    assert recovered.get(make_key(0)) is not None
    return recovered.last_recovery_seconds


def e6_recovery(record_counts: tuple[int, ...] = (1000, 2500, 5000, 10000)) -> Table:
    """Fig E6a: recovery time vs WAL size, serial WAL vs xWAL(4)."""
    table = Table(
        "E6a: crash-recovery time vs WAL records (simulated ms)",
        ["records", "serial_wal", "xwal_4_shards", "speedup"],
        notes=[
            "large write buffer keeps the whole workload in the WAL",
            f"replay cost {_RECOVERY_APPLY_COST*1e6:.0f}µs/record (see module note)",
        ],
    )
    for n in record_counts:
        t_serial = _crash_recovery_seconds(1, n)
        t_sharded = _crash_recovery_seconds(4, n)
        table.add_row(n, t_serial * 1e3, t_sharded * 1e3, t_serial / max(t_sharded, 1e-12))
    return table


def e6_recovery_shards(
    shard_counts: tuple[int, ...] = (1, 2, 4, 8, 16), records: int = 8000
) -> Table:
    """Fig E6b: recovery time vs shard count."""
    table = Table(
        "E6b: crash-recovery time vs xWAL shards (simulated ms)",
        ["shards", "recovery_ms", "speedup_vs_serial"],
        notes=[f"{records} WAL records"],
    )
    baseline = None
    for shards in shard_counts:
        t = _crash_recovery_seconds(shards, records)
        if baseline is None:
            baseline = t
        table.add_row(shards, t * 1e3, baseline / max(t, 1e-12))
    return table


# --------------------------------------------------------------------------
# E7 — cost-effectiveness
# --------------------------------------------------------------------------


def _tier_split(store: StoreFacade) -> tuple[int, int]:
    """(local, cloud) *data* bytes — tables plus data caches, excluding the
    WAL/manifest, whose size is scale-independent and would skew a
    projection to a large DB."""
    if store.name == "local-only":
        return store.local_bytes(), 0
    if store.name == "cloud-only":
        return 0, store.cloud_bytes()
    if isinstance(store, RocksDBCloudStore):
        return store.file_cache.used_bytes, store.cloud_bytes()
    assert isinstance(store, RocksMashStore)
    return (
        store.placement.local_table_bytes()
        + store.pcache.meta_bytes
        + store.pcache.data_bytes,
        store.placement.cloud_table_bytes(),
    )


def e7_cost(records: int = 3000, operations: int = 1500) -> Table:
    """Table E7: monthly cost and performance-per-dollar (YCSB-B).

    Storage economics only bite at scale, so besides the raw (tiny)
    measured footprint the table projects the measured local:cloud byte
    split onto a 1 TB database — the deployment size the paper's
    cost-effectiveness argument targets.
    """
    TB = 1 << 40
    table = Table(
        "E7: cost-effectiveness under YCSB-B",
        [
            "system",
            "Kops/s",
            "local_share_%",
            "storage_$/mo@1TB",
            "requests_$/mo",
            "Kops/s_per_$",
        ],
        notes=[
            "request costs extrapolated to a 30-day month at the sustained rate",
            "storage projected to a 1 TB DB at the measured local:cloud split",
            "prices: local $0.10/GB-mo, cloud $0.023/GB-mo + request fees",
        ],
    )
    spec = ycsb.WORKLOAD_B.scaled(records, operations)
    for system in SYSTEMS:
        store = make_store(system)
        ycsb.load_phase(store, spec)
        store.counters.reset()
        start = store.clock.now
        result = ycsb.run_phase(store, spec)
        window = max(store.clock.now - start, 1e-9)
        bill = store.cost_report(window)
        local, cloud = _tier_split(store)
        local_share = local / max(local + cloud, 1)
        storage_at_1tb = store.cost_model.storage_cost(
            int(TB * local_share), int(TB * (1 - local_share))
        )
        kops = result.throughput / 1e3
        total = storage_at_1tb + bill.requests
        table.add_row(
            system,
            kops,
            100 * local_share,
            storage_at_1tb,
            bill.requests,
            kops / max(total, 1e-9),
        )
    return table


# --------------------------------------------------------------------------
# E8 — cache behaviour across compactions
# --------------------------------------------------------------------------


def e8_compaction_cache(
    records: int = 2500, phases: int = 6, reads_per_phase: int = 400
) -> Table:
    """Fig E8: persistent-cache hit ratio across compaction churn.

    Alternates zipfian read phases with write bursts that trigger
    compactions; compaction-aware layouts keep serving the hot set, naive
    invalidation refetches it from the cloud after every burst.
    """
    table = Table(
        "E8: pcache data hit ratio per phase (reads between compaction bursts)",
        ["phase", "aware", "naive"],
        notes=[
            f"{records} records; each phase = write burst (compactions) + "
            f"{reads_per_phase} zipfian reads",
            "hit ratio measured over that phase's reads only",
        ],
    )
    from repro.workloads.generator import make_request_generator

    config = rocksmash_config(
        HarnessKnobs(block_cache_bytes=0, pcache_budget_bytes=1 << 20)  # isolate the pcache
    )

    def run(aware: bool) -> list[float]:
        layout = replace(config.layout, aware=aware, prewarm_heat_threshold=0.5)
        store = RocksMashStore.create(replace(config, layout=layout))
        dbbench.fill_database(store, records)
        gen = make_request_generator("zipfian", records, seed=11)
        ratios = []
        for phase in range(phases):
            # Write burst touching a slice of the keyspace -> compactions.
            lo = (phase * records) // phases
            for i in range(lo, lo + records // phases):
                store.put(make_key(i), make_value(i + phase, 256))
            store.flush()
            before_h = store.pcache.stats.data_hits
            before_m = store.pcache.stats.data_misses
            for _ in range(reads_per_phase):
                store.get(make_key(gen.next()))
            hits = store.pcache.stats.data_hits - before_h
            misses = store.pcache.stats.data_misses - before_m
            ratios.append(hits / max(hits + misses, 1))
        return ratios

    aware = run(True)
    naive = run(False)
    for phase in range(phases):
        table.add_row(phase, aware[phase], naive[phase])
    table.notes.append(
        f"mean hit ratio: aware={sum(aware)/phases:.3f} naive={sum(naive)/phases:.3f}"
    )
    return table


# --------------------------------------------------------------------------
# E9 — scans
# --------------------------------------------------------------------------


def e9_scan(records: int = 2500, scans: int = 150) -> Table:
    """Fig E9: scan throughput vs scan length."""
    table = Table(
        "E9: seekrandom scan throughput (simulated scans/s)",
        ["system", "len=10", "len=100", "len=500"],
        notes=[f"{records} records, {scans} scans per point"],
    )
    for system in SYSTEMS:
        store = make_store(system)
        dbbench.fill_database(store, records)
        row = [system]
        for length in (10, 100, 500):
            result = dbbench.seekrandom(store, scans, records, scan_length=length)
            row.append(result.ops_per_second)
        table.add_row(*row)
    return table


# --------------------------------------------------------------------------
# E10 — sensitivity to cloud latency
# --------------------------------------------------------------------------


def e10_cloud_latency(
    rtts_ms: tuple[float, ...] = (1, 5, 15, 50, 100),
    records: int = 2000,
    reads: int = 800,
) -> Table:
    """Fig E10: zipfian read throughput as cloud RTT grows."""
    table = Table(
        "E10: readrandom-zipfian Kops/s vs cloud RTT (ms)",
        ["rtt_ms", "cloud-only", "rocksdb-cloud", "rocksmash"],
        notes=["local-only is RTT-independent and omitted",
               f"{records} records, {reads} reads"],
    )
    for rtt in rtts_ms:
        row = [rtt]
        for system in ("cloud-only", "rocksdb-cloud", "rocksmash"):
            store = make_store(system, HarnessKnobs(cloud_rtt=rtt * 1e-3))
            dbbench.fill_database(store, records)
            result = dbbench.readrandom(store, reads, records, distribution="zipfian")
            row.append(result.ops_per_second / 1e3)
        table.add_row(*row)
    return table


# --------------------------------------------------------------------------
# E11 — sensitivity to local capacity
# --------------------------------------------------------------------------


def e11_local_capacity(
    budgets_pct: tuple[int, ...] = (2, 5, 10, 25, 50),
    records: int = 3000,
    operations: int = 1200,
) -> Table:
    """Fig E11: YCSB-C throughput vs local byte budget (% of DB size)."""
    # First, size the database once.
    probe = make_store("rocksmash")
    dbbench.fill_database(probe, records)
    db_bytes = probe.db.approximate_size()

    table = Table(
        "E11: YCSB-C Kops/s vs local SSTable budget (% of DB)",
        ["local_budget_%", "budget_bytes", "Kops/s", "local_table_bytes"],
        notes=[
            f"DB ≈ {db_bytes} bytes; cloud_level=6 (levels never force demotion)"
            " so the byte budget alone drives placement"
        ],
    )
    spec = ycsb.WORKLOAD_C.scaled(records, operations)
    config = rocksmash_config()
    for pct in budgets_pct:
        budget = db_bytes * pct // 100
        placement = replace(config.placement, cloud_level=6, local_bytes_budget=budget)
        store = RocksMashStore.create(replace(config, placement=placement))
        ycsb.load_phase(store, spec)
        result = ycsb.run_phase(store, spec)
        table.add_row(
            pct, budget, result.throughput / 1e3, store.placement.local_table_bytes()
        )
    return table


# --------------------------------------------------------------------------
# E12 — ablations
# --------------------------------------------------------------------------


def e12_ablations(records: int = 2500, operations: int = 1200) -> Table:
    """Table E12: each design mechanism removed in turn.

    Mechanisms are measured on the workload that stresses them: YCSB-A
    (update-heavy → compaction churn) for the cache mechanisms and
    placement, YCSB-E (scan-heavy) for readahead. The xWAL shard count is
    expected to be ≈neutral on throughput — its benefit is recovery time
    (E6), so its ≈100% row is itself a result.
    """
    table = Table(
        "E12: ablations (simulated Kops/s)",
        ["variant", "workload", "Kops/s", "vs_full_%"],
        notes=["full = RocksMash with all mechanisms enabled"],
    )
    full = rocksmash_config()
    variants: list[tuple[str, str, StoreConfig]] = [
        ("full", "A", full),
        ("no-metadata-pinning", "A", replace(full, pin_metadata=False)),
        ("naive-invalidation", "A", replace(full, layout=replace(full.layout, aware=False))),
        ("cloud-level-1 (less local)", "A", _all_cloud()),
        ("xwal-1-shard", "A", replace(full, xwal=replace(full.xwal, num_shards=1))),
        ("full", "E", full),
        ("no-scan-readahead", "E", replace(full, scan_readahead_bytes=0)),
    ]
    base: dict[str, float] = {}
    for label, workload, config in variants:
        spec = ycsb.ALL_WORKLOADS[workload].scaled(records, operations)
        store = RocksMashStore.create(config)
        result = ycsb.run_workload(store, spec)
        kops = result.throughput / 1e3
        base.setdefault(workload, kops)
        table.add_row(label, workload, kops, 100.0 * kops / base[workload])
    return table


# --------------------------------------------------------------------------
# E13 — compression ablation (extension: not in the paper's core set)
# --------------------------------------------------------------------------


def e13_compression(records: int = 2500, reads: int = 1000) -> Table:
    """Table E13: zlib data-block compression — bytes and throughput.

    Compression multiplies the effective cloud capacity and shrinks egress
    per miss; with highly compressible values it also *speeds up* reads
    (smaller transfers) at simulated-zero CPU cost (the clock models I/O,
    not compression CPU — noted in the table).
    """
    table = Table(
        "E13: zlib compression ablation (RocksMash, compressible values)",
        ["compression", "cloud_bytes", "egress_bytes", "read_Kops/s", "write_Kops/s"],
        notes=[
            f"{records} records with highly compressible values, {reads} zipfian reads",
            "simulated clock models I/O, not compression CPU",
        ],
    )
    from repro.workloads.generator import make_request_generator

    for compression in ("none", "zlib"):
        store = make_store("rocksmash", HarnessKnobs(compression=compression))
        value = (b"compressible-payload-" * 12)[:256]
        start = store.clock.now
        for i in range(records):
            store.put(make_key(i), value)
        store.flush()
        write_kops = records / max(store.clock.now - start, 1e-9) / 1e3
        store.counters.reset()
        gen = make_request_generator("zipfian", records, seed=3)
        start = store.clock.now
        for _ in range(reads):
            store.get(make_key(gen.next()))
        read_kops = reads / max(store.clock.now - start, 1e-9) / 1e3
        table.add_row(
            compression,
            store.cloud_bytes(),
            store.counters.get("cloud.get_bytes"),
            read_kops,
            write_kops,
        )
    return table


# --------------------------------------------------------------------------
# E14 — batched reads (extension)
# --------------------------------------------------------------------------


def e14_multiget(
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8, 16, 32), records: int = 3000
) -> Table:
    """Fig E14: cold-read throughput vs multi_get batch size.

    Within a batch, RocksMash issues the cloud block fetches of different
    keys concurrently (fork/join), so per-key latency amortizes the round
    trip across the wave.
    """
    table = Table(
        "E14: multi_get batched cold reads (simulated Kops/s per key)",
        ["batch", "Kops/s", "speedup_vs_batch1"],
        notes=[f"{records} records; keys spread so each read needs its own block",
               "parallelism capped at 8 concurrent fetches per wave"],
    )
    baseline = None
    for batch in batch_sizes:
        store = make_store("rocksmash", HarnessKnobs(block_cache_bytes=0))
        dbbench.fill_database(store, records)
        # Spread keys so every lookup hits a distinct block, cold.
        keys = [make_key(i) for i in range(0, records, 7)]
        start = store.clock.now
        done = 0
        for i in range(0, len(keys) - batch, batch):
            store.multi_get(keys[i : i + batch])
            done += batch
        elapsed = max(store.clock.now - start, 1e-9)
        kops = done / elapsed / 1e3
        if baseline is None:
            baseline = kops
        table.add_row(batch, kops, kops / baseline)
    return table


# --------------------------------------------------------------------------
# E15 — reliability under transient cloud faults (extension)
# --------------------------------------------------------------------------


def e15_fault_tolerance(
    error_rates: tuple[float, ...] = (0.0, 0.01, 0.05, 0.2),
    records: int = 2000,
    reads: int = 600,
) -> Table:
    """Table E15: throughput and correctness under injected cloud errors.

    Every request may fail with the given probability; the store retries
    with capped exponential backoff charged to the clock. The reliability
    claim: zero wrong or lost answers at any error rate — only throughput
    degrades.
    """
    table = Table(
        "E15: transient cloud-fault injection (RocksMash, readrandom-zipfian)",
        ["error_rate", "Kops/s", "retries", "wrong_or_missing_answers"],
        notes=["retry policy: 5 attempts, exponential backoff from 10 ms"],
    )
    for rate in error_rates:
        store = make_store("rocksmash")
        # Attach fault injection after the (fault-free) load phase.
        dbbench.fill_database(store, records)
        from repro.sim.failure import FaultInjector

        store.cloud_store.faults = FaultInjector(error_rate=rate, seed=7)
        from repro.workloads.generator import make_request_generator

        gen = make_request_generator("zipfian", records, seed=5)
        wrong = 0
        start = store.clock.now
        for i in range(reads):
            idx = gen.next()
            if store.get(make_key(idx)) != make_value(idx, 100):
                wrong += 1
        elapsed = max(store.clock.now - start, 1e-9)
        table.add_row(
            rate,
            reads / elapsed / 1e3,
            store.counters.get("cloud.retries"),
            wrong,
        )
    return table


# --------------------------------------------------------------------------
# E16 — hot-file promotion (extension)
# --------------------------------------------------------------------------


def e16_promotion(records: int = 2500, rounds: int = 8, span: int = 150) -> Table:
    """Table E16: up-tiering ablation under a concentrated hot range.

    A narrow key range is hammered repeatedly while the rest of the tree is
    cloud-resident and the persistent cache is too small to hold the hot
    set. With promotion, the hot tables migrate back to the local device.
    """
    from repro.mash.pcache import PCacheConfig
    from repro.mash.placement import PlacementConfig

    table = Table(
        "E16: hot-file promotion ablation (hot-range reads, simulated Kops/s)",
        ["promotion", "Kops/s", "promotions", "local_table_bytes"],
        notes=[
            f"{records} records; hot range of {span} keys read {rounds}x;",
            "pcache deliberately smaller than the hot set",
        ],
    )
    for enabled in (False, True):
        config = replace(
            StoreConfig().small(),
            placement=PlacementConfig(
                cloud_level=1,
                local_bytes_budget=96 << 10,
                promotion_enabled=enabled,
            ),
            pcache=PCacheConfig(data_budget_bytes=2 << 10),
        )
        store = RocksMashStore.create(config)
        for i in range(records):
            store.put(make_key(i), make_value(i, 80))
        store.flush()
        # Warm-up rounds build heat; a flush triggers the promotion pass.
        for _ in range(3):
            for i in range(1000, 1000 + span):
                store.get(make_key(i))
        store.put(b"topology-change", b"x")
        store.flush()
        reads = 0
        start = store.clock.now
        for _ in range(rounds):
            for i in range(1000, 1000 + span):
                store.get(make_key(i))
                reads += 1
        elapsed = max(store.clock.now - start, 1e-9)
        table.add_row(
            "on" if enabled else "off",
            reads / elapsed / 1e3,
            store.placement.promotions,
            store.placement.local_table_bytes(),
        )
    return table


# --------------------------------------------------------------------------
# E17 — compaction style (extension)
# --------------------------------------------------------------------------


def e17_compaction_style(records: int = 6000, keyspace: int = 1500, reads: int = 800) -> Table:
    """Table E17: leveled vs universal compaction on the hybrid store.

    The classic trade, measured end-to-end on RocksMash: universal rewrites
    (and re-uploads) less during ingest; leveled keeps fewer runs and wins
    point reads. Placement maps tiers onto storage naturally: young runs
    stay local, full merges land on the cloud-resident bottom level.
    """
    import random

    from repro.workloads.generator import make_request_generator

    table = Table(
        "E17: compaction style on RocksMash (overwrite-heavy ingest)",
        [
            "style",
            "ingest_Kops/s",
            "compaction_bytes_written",
            "cloud_put_bytes",
            "read_Kops/s",
        ],
        notes=[
            f"{records} writes over {keyspace} keys, then {reads} zipfian reads",
            "on hybrid storage, tiered compaction keeps young runs local:",
            "far fewer uploads AND faster ingest; leveled's read advantage",
            "(fewer runs) only matters at run counts beyond this scale",
        ],
    )
    for style in ("leveled", "universal"):
        base = StoreConfig().small()
        options = replace(
            base.options,
            compaction_style=style,
            target_file_size_base=(
                (1 << 20) if style == "universal" else base.options.target_file_size_base
            ),
        )
        store = RocksMashStore.create(replace(base, options=options))
        rng = random.Random(2)
        start = store.clock.now
        for i in range(records):
            store.put(make_key(rng.randrange(keyspace)), make_value(i, 100))
        store.flush()
        ingest_kops = records / max(store.clock.now - start, 1e-9) / 1e3
        put_bytes = store.counters.get("cloud.put_bytes")
        gen = make_request_generator("zipfian", keyspace, seed=4)
        start = store.clock.now
        for _ in range(reads):
            store.get(make_key(gen.next()))
        read_kops = reads / max(store.clock.now - start, 1e-9) / 1e3
        table.add_row(
            style,
            ingest_kops,
            store.db.compaction_stats.bytes_written,
            put_bytes,
            read_kops,
        )
    return table


# --------------------------------------------------------------------------
# E18 — parallel subcompactions + coalesced compaction I/O (extension)
# --------------------------------------------------------------------------


def e18_parallel_compaction(records: int = 4000, value_size: int = 50) -> Table:
    """Table E18: the compaction pipeline — subcompactions over coalesced reads.

    fillrandom, then a full manual ``compact_range``; the table sweeps
    ``max_subcompactions`` 1/2/4/8, every input read in one sequential pass.
    Columns report the simulated compaction time, the cloud GETs the
    compaction issued, and a digest of the resulting DB contents — identical
    in every row, because partitioning only changes *where* output files are
    cut, never what they contain.
    """
    import hashlib
    import random

    table = Table(
        "E18: parallel subcompactions + coalesced cloud reads (full compaction)",
        [
            "config",
            "compact_seconds",
            "cloud_gets",
            "coalesced_fetches",
            "upload_overlap_saved_s",
            "content_digest",
        ],
        notes=[
            f"{records} random puts then compact_range(None, None)",
            "each input is read in 2 MiB ranges, not one GET per block; subcompactions",
            "merge key partitions on forked clocks; demotion uploads overlap the",
            "merge. Digest equality shows parallelism never changes contents.",
        ],
    )

    def run(parallelism: int) -> tuple[float, int, int, float, str]:
        store = make_store("rocksmash", HarnessKnobs(max_subcompactions=parallelism))
        rng = random.Random(42)
        keys = [make_key(rng.randrange(10**9)) for _ in range(records)]
        for i, key in enumerate(keys):
            store.put(key, make_value(i, value_size))
        gets_before = store.counters.get("cloud.get_ops")
        saved_before = store.counters.get("compaction.upload_overlap_us_saved")
        start = store.clock.now
        store.compact_range(None, None)
        seconds = store.clock.now - start
        gets = store.counters.get("cloud.get_ops") - gets_before
        saved = store.counters.get("compaction.upload_overlap_us_saved") - saved_before
        digest = hashlib.sha256()
        for key, value in store.db.scan(None, None):
            digest.update(key)
            digest.update(b"\x00")
            digest.update(value)
            digest.update(b"\x00")
        fetches = store.db.compaction_stats.coalesced_fetches
        return seconds, gets, fetches, saved / 1e6, digest.hexdigest()[:12]

    for parallelism in (1, 2, 4, 8):
        table.add_row(f"subcompactions={parallelism}", *run(parallelism))
    return table


# --------------------------------------------------------------------------
# E19 — crash recovery at scale + graceful degradation (extension)
# --------------------------------------------------------------------------


def e19a_crash_recovery_shards(
    shard_counts: tuple[int, ...] = (1, 2, 4, 8), records: int = 8000
) -> Table:
    """Table E19a: mid-operation crash recovery vs xWAL shard count.

    Unlike E6 (clean between-operation crash), the crash here fires *inside*
    a flush — after the L0 table is written and the WAL rotated but before
    the manifest edit commits (``flush.before_manifest``) — so recovery must
    purge the orphan table, replay the full WAL generation in parallel
    across shards, and re-flush. The content digest is identical in every
    row: shard count changes recovery time, never recovered data.
    """
    import hashlib

    from repro.sim.failure import CrashPointFired, crash_points

    table = Table(
        "E19a: mid-flush crash recovery vs xWAL shards (simulated ms)",
        ["shards", "recovery_ms", "speedup_vs_serial", "content_digest"],
        notes=[
            f"{records} WAL records; crash at flush.before_manifest;",
            f"replay cost {_RECOVERY_APPLY_COST*1e6:.0f}µs/record (see module note)",
        ],
    )
    baseline = None
    for shards in shard_counts:
        store = _recovery_store(shards)
        for i in range(records):
            store.put(make_key(i), make_value(i, 256))
        crash_points.reset()
        crash_points.arm("flush.before_manifest")
        try:
            store.flush()
            raise AssertionError("flush.before_manifest never fired")
        except CrashPointFired:
            pass
        finally:
            crash_points.disarm()
        recovered = store.reopen(crash=True)
        digest = hashlib.sha256()
        for key, value in recovered.db.scan(None, None):
            digest.update(key)
            digest.update(b"\x00")
            digest.update(value)
            digest.update(b"\x00")
        t = recovered.last_recovery_seconds
        if baseline is None:
            baseline = t
        table.add_row(
            shards, t * 1e3, baseline / max(t, 1e-12), digest.hexdigest()[:12]
        )
        recovered.close()
        crash_points.reset()
    return table


def e19b_write_fault_storm(
    error_rates: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.3),
    records: int = 2000,
) -> Table:
    """Table E19b: write throughput under a write-targeted cloud fault storm.

    The fault injector's op-prefix filter storms only mutating cloud
    requests (PUT / copy) — exactly the demotion path — while
    GETs stay healthy. The graceful-degradation claim: the retry/backoff
    path absorbs every fault (writes slow down, reads stay correct and no
    data is lost), with zero wrong answers at any rate.
    """
    from repro.sim.failure import FaultInjector

    table = Table(
        "E19b: write-targeted cloud fault storm (RocksMash, random-order fill)",
        ["error_rate", "fill_Kops/s", "retries", "slowdown", "wrong_or_missing"],
        notes=[
            "faults hit only cloud.put*/copy;",
            "retry policy: 5 attempts, exponential backoff from 10 ms",
        ],
    )
    baseline = None
    for rate in error_rates:
        # cloud_level=1 demotes every compaction output, so the fill issues
        # a steady stream of cloud writes for the storm to hit.
        store = RocksMashStore.create(_all_cloud())
        store.cloud_store.faults = FaultInjector(
            error_rate=rate,
            seed=11,
            op_prefixes=("cloud.put", "cloud.copy"),
        )
        start = store.clock.now
        dbbench.fill_database(store, records)
        elapsed = max(store.clock.now - start, 1e-9)
        throughput = records / elapsed / 1e3
        if baseline is None:
            baseline = throughput
        # Reads ride through untouched — verify a sample is still correct.
        import random as _random

        rng = _random.Random(13)
        wrong = 0
        for _ in range(200):
            i = rng.randrange(records)
            if store.get(make_key(i)) != make_value(i, 100):
                wrong += 1
        table.add_row(
            rate,
            throughput,
            store.counters.get("cloud.retries"),
            baseline / max(throughput, 1e-12),
            wrong,
        )
    return table


# --------------------------------------------------------------------------
# E20 — read-path anatomy (tier-attributed latency breakdown)
# --------------------------------------------------------------------------


def e20_read_anatomy(records: int = 1800, reads: int = 90) -> Table:
    """Table E20: where a cold point-miss spends its time, per tier.

    Every probe evicts the open-table cache first (and the DRAM block cache
    is disabled), so each get pays the full cold read path: table open
    (footer/index/filter) plus the data block. The tracer's per-span tier
    attribution splits that latency into local, cloud, and CPU seconds and
    counts the cloud round trips.

    The paper's claim, made visible: with pinned metadata (footer + index +
    filter on the local device) a cold miss against a cloud-resident table
    costs ≈1 cloud round trip — just the data block's ranged GET — while
    without pinning the open alone needs HEAD + footer + index (+ filter)
    from the cloud first, ≥3 extra round trips. The ``conserved`` column
    checks local+cloud+cpu == elapsed on every span.
    """
    from repro.obs.trace import span_conserved

    table = Table(
        "E20: cold point-miss anatomy (per-get means over probes)",
        [
            "config",
            "local_ms",
            "cloud_ms",
            "cpu_ms",
            "total_ms",
            "cloud_rtts",
            "cloud_reads",
            "conserved",
        ],
        notes=[
            f"{records} records, {reads} cold probes; table cache cleared per probe,",
            "DRAM block cache + readahead off; cloud_rtts = mean GETs/HEADs among",
            "probes that touched the cloud; conserved: local+cloud+cpu == elapsed",
        ],
    )
    knobs = HarnessKnobs(block_cache_bytes=0)
    mash = replace(rocksmash_config(knobs), scan_readahead_bytes=0)
    configs: list[tuple[str, Callable[[], StoreFacade]]] = [
        ("rocksmash", partial(RocksMashStore.create, mash)),
        ("rocksmash-nopin", partial(RocksMashStore.create, replace(mash, pin_metadata=False))),
        ("rocksdb-cloud", partial(make_store, "rocksdb-cloud", knobs)),
        ("cloud-only", partial(make_store, "cloud-only", knobs)),
    ]
    stride = max(1, records // reads)
    for label, build in configs:
        store = build()
        dbbench.fill_database(store, records)
        t0 = store.clock.now
        for i in range(reads):
            store.db.table_cache.clear()
            store.get(make_key(i * stride))
        spans = [
            s for s in store.tracer.spans if s.op == "get" and s.start >= t0
        ]
        touched = [s for s in spans if s.cloud_ops > 0]
        n = max(1, len(spans))
        rtts = (
            sum(s.cloud_ops for s in touched) / len(touched) if touched else 0.0
        )
        table.add_row(
            label,
            sum(s.tiers.local for s in spans) / n * 1e3,
            sum(s.tiers.cloud for s in spans) / n * 1e3,
            sum(s.tiers.cpu for s in spans) / n * 1e3,
            sum(s.elapsed for s in spans) / n * 1e3,
            rtts,
            len(touched),
            "yes" if all(span_conserved(s) for s in spans) else "no",
        )
    return table


def e21_scan_pipeline(
    records: int = 2600, long_scans: int = 4, short_scans: int = 24
) -> Table:
    """Table E21: the scan-prefetch pipeline — overlapped cloud RTTs.

    Cold cloud-resident range scans (everything below L0 demoted, DRAM
    cache off, tiny pcache data budget, open-table cache cleared per scan)
    swept over ``scan_prefetch_depth`` 0/1/2/4. With the pipeline on, the
    seek fans out the initial reader opens in parallel and each level keeps
    up to ``depth`` upcoming tables speculatively opened + primed on forked
    child clocks, so their round trips hide behind consumption of the
    current table. The digest column proves scan *results* are identical
    at every depth — the pipeline only moves simulated time and requests.

    Short scans (limit 5) quantify the price of speculation: each abandons
    at most ``depth`` in-flight prefetches (``waste_short`` counts them
    across all short scans); the wasted GETs cost requests, never parent
    latency. ``conserved`` checks local+cloud+cpu == elapsed on every scan
    span, prefetch branches included.
    """
    import hashlib

    from repro.obs.trace import span_conserved

    table = Table(
        "E21: pipelined scan prefetch (cold cloud-resident scans)",
        [
            "depth",
            "long_scan_s",
            "speedup",
            "cloud_gets",
            "hits",
            "waste_long",
            "short_scan_ms",
            "waste_short",
            "conserved",
            "digest",
        ],
        notes=[
            f"{records} records, cloud_level=1, DRAM cache off, 4 KiB pcache data",
            f"budget; {long_scans} full scans + {short_scans} limit-5 scans, table",
            "cache cleared per scan; hits/waste are prefetch events; digest over",
            "all scanned key/value bytes — identical at every depth",
        ],
    )
    stride = max(1, records // short_scans)
    base_long = None
    for depth in (0, 1, 2, 4):
        knobs = HarnessKnobs(
            scan_prefetch_depth=depth, block_cache_bytes=0, pcache_budget_bytes=4 << 10
        )
        store = RocksMashStore.create(_all_cloud(knobs))
        dbbench.fill_database(store, records)
        t0 = store.clock.now
        gets0 = store.counters.get("cloud.get_ops")
        digest = ""
        for _ in range(long_scans):
            store.db.table_cache.clear()
            hasher = hashlib.sha256()
            for key, value in store.scan(None, None):
                hasher.update(key)
                hasher.update(value)
            digest = hasher.hexdigest()[:12]
        long_s = (store.clock.now - t0) / long_scans
        cloud_gets = (store.counters.get("cloud.get_ops") - gets0) / long_scans
        hits = store.tracer.event_count("prefetch_hit")
        waste_long = store.tracer.event_count("prefetch_waste")
        t1 = store.clock.now
        for i in range(short_scans):
            store.db.table_cache.clear()
            store.scan(make_key(i * stride), None, limit=5)
        short_ms = (store.clock.now - t1) / short_scans * 1e3
        waste_short = store.tracer.event_count("prefetch_waste") - waste_long
        conserved = all(
            span_conserved(s) for s in store.tracer.spans if s.op == "scan"
        )
        if base_long is None:
            base_long = long_s
        table.add_row(
            depth,
            long_s,
            base_long / long_s,
            cloud_gets,
            hits,
            waste_long,
            short_ms,
            waste_short,
            "yes" if conserved else "no",
            digest,
        )
    return table


def e22_sharded_serving(
    records: int = 2000,
    operations: int = 1200,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    rate_multipliers: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
) -> Table:
    """Table E22: multi-tenant sharded serving under open-loop load.

    An N-way :class:`~repro.serve.sharded.ShardedDB` (range-partitioned
    RocksMash shards over shared simulated devices) is driven by the
    open-loop front-end: Poisson arrivals at multiples of the single-store
    closed-loop YCSB-C throughput, per-shard FIFO queueing, and a bounded
    admission queue (256 outstanding per shard). Three blocks:

    * **knee** — YCSB-C across shard counts × offered rates: below the
      knee latency is flat near service time; past it, ``qwait_p99``
      dominates p99/p999 and more shards push the knee right (parallel
      service). Overload rows may drop arrivals (admission control).
    * **single** — the unsharded store behind the same front-end at equal
      offered load: the shard-parallel speedup baseline.
    * **mix** — YCSB-A/B where deferred flush+compaction replays on the
      shard's busy timeline after the triggering response (``maint_ms``),
      surfacing as queueing interference on later requests' tails rather
      than one victim op's service time.

    The digest column hashes every read value and scan result: on
    drop-free rows it is identical across shard counts, rates, and the
    single-store baseline — sharding and scheduling move simulated time,
    never results. ``conserved`` checks local+cloud+cpu == elapsed on
    every span, concurrent in-flight requests included.
    """
    from repro.obs.trace import span_conserved
    from repro.serve import FrontendConfig, ServeConfig, ShardedDB, run_open_loop

    table = Table(
        "E22: sharded serving — tail latency vs shard count and offered load",
        [
            "wl",
            "server",
            "shards",
            "rate",
            "tput",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "qwait_p99_ms",
            "drops",
            "maint_ms",
            "conserved",
            "digest",
        ],
        notes=[
            f"{records} records, {operations} open-loop ops; rate = multiple of the",
            "closed-loop single-store YCSB-C throughput; queue capacity 256/shard;",
            "p* over total latency (queue wait + service); maint_ms = deferred",
            "flush/compaction replayed post-response; digest over read/scan results",
            "— equal on all drop-free rows of a workload",
        ],
    )
    # Cloud-resident reads (everything below L0 demoted, DRAM cache off,
    # tiny pcache budget): per-request service is dominated by cloud RTTs
    # at every shard count, so the queueing knee — not per-shard cache
    # capacity — is what shard count moves.
    config = _all_cloud(HarnessKnobs(block_cache_bytes=0, pcache_budget_bytes=4 << 10))

    calibration = RocksMashStore.create(config)
    spec_c = ycsb.ALL_WORKLOADS["C"].scaled(records, operations)
    ycsb.load_phase(calibration, spec_c)
    base_rate = ycsb.run_phase(calibration, spec_c).throughput

    def node(shards: int) -> ShardedDB:
        return ShardedDB.create(ServeConfig(base=config, num_shards=shards, key_space=records))

    def run_row(workload: str, mult: float, server: str, store: StoreFacade) -> None:
        spec = ycsb.ALL_WORKLOADS[workload].scaled(records, operations)
        ycsb.load_phase(store, spec)
        result = run_open_loop(
            store,
            spec,
            FrontendConfig(arrival_rate=base_rate * mult, queue_capacity=256),
        )
        conserved = all(span_conserved(s) for s in store.tracer.spans)
        table.add_row(
            workload,
            server,
            store.num_shards,
            f"{mult:g}x",
            result.throughput,
            result.latency.percentile(50) * 1e3,
            result.latency.percentile(99) * 1e3,
            result.latency.percentile(99.9) * 1e3,
            result.queue_wait.percentile(99) * 1e3,
            result.dropped,
            result.maintenance_seconds * 1e3,
            "yes" if conserved else "no",
            result.outcome_digest[:12],
        )

    for shards in shard_counts:
        for mult in rate_multipliers:
            run_row("C", mult, "sharded", node(shards))
    for mult in rate_multipliers:
        run_row("C", mult, "single", RocksMashStore.create(config))
    for workload in ("A", "B"):
        for shards in (1, 4):
            run_row(workload, 1.0, "sharded", node(shards))
    return table


# --------------------------------------------------------------------------
# E23 — WAL-time key-value separation (cloud blob value log)
# --------------------------------------------------------------------------


class _UserByteCounter:
    """Pass-through store wrapper counting exactly the bytes the user wrote."""

    def __init__(self, store: StoreFacade) -> None:
        self.store = store
        self.user_bytes = 0

    def put(self, key: bytes, value: bytes, *, sync: bool = True) -> None:
        self.user_bytes += len(key) + len(value)
        self.store.put(key, value, sync=sync)

    def get(self, key: bytes) -> bytes | None:
        return self.store.get(key)

    def flush(self) -> None:
        self.store.flush()


def e23_bloblog(
    records: int = 1000,
    operations: int = 700,
    value_sizes: tuple[int, ...] = (64, 256, 1024, 4096),
) -> Table:
    """Table E23: key–value separation vs value size (the WiscKey trade).

    Update-heavy YCSB-A at each value size, twice per size on the same
    hybrid config: a non-separated baseline and a blob-separated store
    (128 B threshold, one cloud segment per flushed generation). Reported
    per run:

    * ``write_amp`` — engine bytes written (flush outputs + compaction
      outputs + blob appends) over user bytes; separation keeps
      compaction proportional to keys, so it falls with value size.
    * ``cloud_put_MB`` — upload traffic (demotions + blob seals); the
      dominant request-cost driver in the cost model.
    * ``Kops/s`` and the projected monthly request bill
      (:mod:`repro.storage.cost`) over the measured run window.
    * ``digest`` — every read/scan outcome hashed; baseline and separated
      must agree at every size (the experiment aborts on divergence).

    Each separated store then passes :func:`repro.lsm.check.check_db` —
    its segments' records and every pointer its tables hold — or the
    experiment aborts.

    Below the threshold the two modes are byte-identical; above it the
    separated store should win on write-amp and cloud PUT bytes — the
    crossover the paper's WiscKey lineage predicts.
    """
    import hashlib

    table = Table(
        "E23: WAL-time key-value separation vs value size (YCSB-A)",
        [
            "value_B",
            "mode",
            "write_amp",
            "cloud_put_MB",
            "Kops/s",
            "requests_$/mo",
            "digest",
        ],
        notes=[
            "write_amp = (flush + compaction + blob-append bytes) / user bytes",
            "digest hashes every read/scan outcome; modes must agree per size",
            "separated: blob_value_threshold=128 B, one segment per flushed generation",
        ],
    )
    for value_size in value_sizes:
        digests: dict[str, str] = {}
        for mode, threshold in (("baseline", 0), ("separated", 128)):
            config = StoreConfig().small()
            config = replace(
                config,
                options=replace(config.options, blob_value_threshold=threshold),
            )
            store = RocksMashStore.create(config)
            engine = {"bytes": 0}
            store.db.listeners.on_flush.append(
                lambda e, acc=engine: acc.__setitem__(
                    "bytes", acc["bytes"] + e.meta.file_size
                )
            )
            store.db.listeners.on_compaction.append(
                lambda e, acc=engine: acc.__setitem__(
                    "bytes",
                    acc["bytes"] + sum(o.meta.file_size for o in e.outputs),
                )
            )
            counting = _UserByteCounter(store)
            spec = replace(ycsb.WORKLOAD_A, value_size=value_size).scaled(
                records, operations
            )
            ycsb.load_phase(counting, spec)
            hasher = hashlib.sha256()
            start = store.clock.now
            for op in ycsb.iter_ops(spec, seed=23):
                ycsb.outcome_digest_update(hasher, op, ycsb.apply_op(counting, op))
            window = max(store.clock.now - start, 1e-9)
            store.flush()
            blob_bytes = (
                store.db.blob_store.stats()["bytes_diverted"]
                if store.db.blob_store is not None
                else 0
            )
            digest = hasher.hexdigest()[:12]
            digests[mode] = digest
            table.add_row(
                value_size,
                mode,
                (engine["bytes"] + blob_bytes) / max(counting.user_bytes, 1),
                store.counters.get("cloud.put_bytes") / (1 << 20),
                operations / window / 1e3,
                store.cost_report(window).requests,
                digest,
            )
            if store.db.blob_store is not None:
                # After the row's figures: the check's reads move no cell.
                report = check_db(store.env, store.config.db_prefix, store.config.options)
                if not report.ok:
                    raise AssertionError(
                        f"E23: separated store fails check_db at value_size={value_size}:"
                        f" {report.errors}"
                    )
            store.close()
        if digests["baseline"] != digests["separated"]:
            raise AssertionError(
                f"E23: separated store diverged at value_size={value_size}: {digests}"
            )
    return table


ALL_EXPERIMENTS = {
    "e1": e1_write_micro,
    "e2": e2_read_micro,
    "e3": e3_ycsb,
    "e4": e4_latency,
    "e5": e5_metadata_overhead,
    "e6a": e6_recovery,
    "e6b": e6_recovery_shards,
    "e7": e7_cost,
    "e8": e8_compaction_cache,
    "e9": e9_scan,
    "e10": e10_cloud_latency,
    "e11": e11_local_capacity,
    "e12": e12_ablations,
    "e13": e13_compression,
    "e14": e14_multiget,
    "e15": e15_fault_tolerance,
    "e16": e16_promotion,
    "e17": e17_compaction_style,
    "e18": e18_parallel_compaction,
    "e19a": e19a_crash_recovery_shards,
    "e19b": e19b_write_fault_storm,
    "e20": e20_read_anatomy,
    "e21": e21_scan_pipeline,
    "e22": e22_sharded_serving,
    "e23": e23_bloblog,
}
