#!/usr/bin/env python
"""Hot/cold cache study: what compaction-aware layouts buy.

A session-store workload: a zipfian hot set is read continuously while
background updates keep triggering compactions (which rewrite SSTables).
With a conventional cache every compaction invalidates the hot set; with
RocksMash's compaction-aware layout the new tables inherit the old blocks'
heat and are pre-warmed before demotion.

Run:  python examples/hot_cold_cache_study.py
"""

import random
from dataclasses import replace

from repro.bench.harness import HarnessKnobs, rocksmash_config
from repro.mash.store import RocksMashStore
from repro.workloads.generator import make_key, make_request_generator, make_value

RECORDS = 2500
PHASES = 5
READS_PER_PHASE = 400


def run(layout_aware: bool) -> list[tuple[float, float]]:
    """Returns per-phase (pcache hit ratio, simulated read seconds)."""
    config = rocksmash_config(
        HarnessKnobs(block_cache_bytes=0, pcache_budget_bytes=1 << 20)  # isolate the pcache
    )
    layout = replace(config.layout, aware=layout_aware, prewarm_heat_threshold=0.5)
    store = RocksMashStore.create(replace(config, layout=layout))
    rng = random.Random(42)
    for i in range(RECORDS):
        store.put(make_key(i), make_value(i, 200))
    store.flush()

    reads = make_request_generator("zipfian", RECORDS, seed=7)
    phases = []
    for phase in range(PHASES):
        # Background churn: rewrite a slice of the keyspace -> compactions.
        lo = (phase * RECORDS) // PHASES
        for i in range(lo, lo + RECORDS // PHASES):
            store.put(make_key(i), make_value(i + phase, 200))
        store.flush()

        h0 = store.pcache.stats.data_hits
        m0 = store.pcache.stats.data_misses
        t0 = store.clock.now
        for _ in range(READS_PER_PHASE):
            store.get(make_key(reads.next()))
        hits = store.pcache.stats.data_hits - h0
        misses = store.pcache.stats.data_misses - m0
        phases.append((hits / max(hits + misses, 1), store.clock.now - t0))
    return phases


def main() -> None:
    aware = run(layout_aware=True)
    naive = run(layout_aware=False)
    print("persistent-cache behaviour across compaction bursts\n")
    print(f"{'phase':>5}  {'aware hit%':>10}  {'naive hit%':>10}  "
          f"{'aware read-s':>12}  {'naive read-s':>12}")
    for i, ((ah, at), (nh, nt)) in enumerate(zip(aware, naive)):
        print(f"{i:>5}  {ah*100:>9.1f}%  {nh*100:>9.1f}%  {at:>12.3f}  {nt:>12.3f}")
    mean_aware = sum(h for h, _ in aware) / PHASES
    mean_naive = sum(h for h, _ in naive) / PHASES
    print(f"\nmean hit ratio: aware={mean_aware:.3f}  naive={mean_naive:.3f}")
    print("Naive invalidation refetches the hot set from the cloud after every")
    print("compaction burst; heat inheritance keeps serving it locally.")


if __name__ == "__main__":
    main()
