#!/usr/bin/env python
"""Crash-recovery drill: durability audit + parallel-recovery speedup.

Simulates a busy store losing power mid-traffic, then audits that every
*acknowledged* (synced) write survived and measures how the extended WAL's
shard count changes recovery time. The one-shard row is the serial WAL every
baseline runs.

Run:  python examples/crash_recovery_drill.py
"""

from repro.facade import StoreFacade
from repro.lsm.options import Options
from repro.lsm.wal import XWalConfig
from repro.mash.store import RocksMashStore, StoreConfig

# Large write buffer: keep everything in the WAL so recovery is a pure
# log-replay exercise.
OPTIONS = Options(write_buffer_size=64 << 20)


def crash_and_audit(store: StoreFacade, records: int = 4000) -> tuple[float, int]:
    """Returns (simulated recovery seconds, surviving acked writes)."""
    acked = {}
    for i in range(records):
        key = f"order:{i:08d}".encode()
        value = f"amount={i % 997}".encode()
        # Even-numbered writes are synced (acknowledged to the client);
        # odd ones are left unsynced, like a crash mid-group-commit.
        sync = i % 2 == 0
        store.put(key, value, sync=sync)
        if sync:
            acked[key] = value

    recovered = store.reopen(crash=True)

    survivors = sum(recovered.get(k) == v for k, v in acked.items())
    lost_acked = len(acked) - survivors
    assert lost_acked == 0, f"DURABILITY VIOLATION: {lost_acked} acked writes lost"
    return recovered.last_recovery_seconds, survivors


def drill(shards: int) -> tuple[float, int]:
    config = StoreConfig(
        options=OPTIONS,
        xwal=XWalConfig(num_shards=shards, apply_cost_per_record=25e-6),
    )
    return crash_and_audit(RocksMashStore.create(config))


def main() -> None:
    print("crash-recovery drill: 4000 writes, power cut, recover, audit\n")
    baseline = None
    print(f"{'shards':>6}  {'recovery (sim ms)':>18}  {'speedup':>8}  acked survived")
    for shards in (1, 2, 4, 8, 16):
        seconds, survivors = drill(shards)
        if baseline is None:
            baseline = seconds
        print(
            f"{shards:>6}  {seconds*1e3:>18.2f}  {baseline/seconds:>7.2f}x"
            f"  {survivors}/{survivors} ✓"
        )
    print(
        "\nEvery synced write survived every crash; unsynced tail writes may"
        "\nbe lost (never corrupted). Recovery parallelizes with shard count."
    )


if __name__ == "__main__":
    main()
