#!/usr/bin/env python
"""A sharded serving node: open-loop load, then what its operator sees.

Builds a 2-shard RocksMash node (the key space split in two ranges, both
shards on one simulated clock, local device and cloud), serves a YCSB-A
stream at a fixed offered rate, then uses the node the way an operator
uses one store: ``compact_range`` over one shard's keys, ``explain`` on a
key (answered by the shard that owns it) and ``metrics``, summed over the
shards.

Run:  python examples/serving_node.py
"""

from repro import StoreConfig
from repro.serve import FrontendConfig, ServeConfig, ShardedDB, run_open_loop
from repro.workloads import ycsb
from repro.workloads.generator import make_key

RECORDS = 2000


def main() -> None:
    node = ShardedDB.create(
        ServeConfig(base=StoreConfig().small(), num_shards=2, key_space=RECORDS)
    )
    spec = ycsb.WORKLOAD_A.scaled(RECORDS, 1000)
    ycsb.load_phase(node, spec)
    result = run_open_loop(node, spec, FrontendConfig(arrival_rate=200.0))
    print(
        f"{result.completed} ops served at {result.throughput:.1f} simulated ops/s, "
        f"p99 latency {result.latency.percentile(99) * 1e3:.2f} ms"
    )

    # Only the lower shard owns keys in this range: one branch, one shard.
    node.compact_range(make_key(0), make_key(RECORDS // 2 - 1))
    for index, shard in enumerate(node.shards):
        print(f"shard {index} (level, files, bytes):", shard.db.level_summary())

    why = node.explain(make_key(RECORDS - 1))
    print("explain:", " -> ".join(f"{layer} {outcome}" for layer, outcome in why.path))
    metrics = node.metrics()
    for name in ("flushes", "compaction.compactions", "level.0.files", "cloud.get_ops"):
        print(f"  {name:<22} {metrics[name]}")
    print("serving node OK")


if __name__ == "__main__":
    main()
