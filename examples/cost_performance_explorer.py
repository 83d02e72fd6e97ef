#!/usr/bin/env python
"""Cost/performance explorer — the paper's motivating scenario.

A web-scale service has a dataset far larger than it wants to pay for in
local SSD. How much local capacity buys how much performance? This script
runs a zipfian read-mostly workload (YCSB-B) against RocksMash with
different local budgets and against the all-local / all-cloud extremes,
printing a cost-performance frontier.

Run:  python examples/cost_performance_explorer.py
"""

from dataclasses import replace

from repro.bench.harness import HarnessKnobs, make_store, rocksmash_config
from repro.bench.report import Table
from repro.facade import StoreFacade
from repro.mash.store import RocksMashStore
from repro.workloads import ycsb

RECORDS = 2500
OPERATIONS = 1200
TB = 1 << 40


def run_store(store: StoreFacade):
    """YCSB-B on ``store``: its run-phase result and monthly bill."""
    spec = ycsb.WORKLOAD_B.scaled(RECORDS, OPERATIONS)
    ycsb.load_phase(store, spec)
    store.counters.reset()
    start = store.clock.now
    result = ycsb.run_phase(store, spec)
    window = max(store.clock.now - start, 1e-9)
    bill = store.cost_report(window)
    return result, bill


def main() -> None:
    table = Table(
        "cost/performance frontier (YCSB-B, zipfian)",
        ["configuration", "Kops/s", "local_GB_@1TB", "monthly_requests_$"],
        notes=[
            "local_GB_@1TB: local capacity needed if the DB were 1 TB,",
            "projected from the measured local:(local+cloud) data split",
        ],
    )

    # The two extremes.
    for system in ("cloud-only", "local-only"):
        result, bill = run_store(make_store(system))
        share = 0.0 if system == "cloud-only" else 1.0
        table.add_row(system, result.throughput / 1e3, share * 1024, bill.requests)

    # RocksMash across local budgets.
    probe = make_store("rocksmash")
    run_store(probe)
    db_bytes = probe.db.approximate_size()
    for pct in (5, 15, 30, 60):
        budget = db_bytes * pct // 100
        # The persistent cache shares the swept local allowance.
        config = rocksmash_config(HarnessKnobs(pcache_budget_bytes=max(budget // 2, 16 << 10)))
        placement = replace(config.placement, cloud_level=6, local_bytes_budget=budget)
        store = RocksMashStore.create(replace(config, placement=placement))
        result, bill = run_store(store)
        local = (
            store.placement.local_table_bytes()
            + store.pcache.meta_bytes
            + store.pcache.data_bytes
        )
        cloud = store.placement.cloud_table_bytes()
        share = local / max(local + cloud, 1)
        table.add_row(
            f"rocksmash ({pct}% local budget)",
            result.throughput / 1e3,
            share * 1024,
            bill.requests,
        )

    table.show()
    print(
        "\nReading the frontier: each RocksMash row buys back a chunk of the"
        "\nlocal-only performance for a fraction of its SSD footprint — the"
        "\npaper's cost-effectiveness argument in one table."
    )


if __name__ == "__main__":
    main()
