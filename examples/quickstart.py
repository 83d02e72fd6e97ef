#!/usr/bin/env python
"""Quickstart: a RocksMash store in a few dozen lines.

Creates a hybrid store on simulated devices, writes and reads data,
shows where the bytes ended up (local SSD vs cloud object store), what the
operator sees (a snapshot read, ``explain``, ``metrics``, the Prometheus
dump), and survives a simulated crash.

Run:  python examples/quickstart.py
"""

from repro import RocksMashStore, StoreConfig


def main() -> None:
    # .small() scales engine thresholds down so this demo compacts and
    # tiers within seconds; drop it for realistic sizes.
    store = RocksMashStore.create(StoreConfig().small())

    # -- basic KV operations ------------------------------------------------
    store.put(b"user:alice", b'{"city": "Wuhan"}')
    store.put(b"user:bob", b'{"city": "Blacksburg"}')
    assert store.get(b"user:alice") == b'{"city": "Wuhan"}'

    store.delete(b"user:bob")
    assert store.get(b"user:bob") is None

    # -- enough data to trigger flushes, compactions, and cloud demotion ----
    for i in range(5000):
        store.put(f"event:{i:08d}".encode(), f"payload-{i}".encode() + b"x" * 100)

    # Range scan (ordered, tombstone-free).
    window = store.scan(b"event:00001000", b"event:00001005")
    for key, value in window:
        print(f"  {key.decode()} -> {len(value)} bytes")

    # -- where did the data go? ----------------------------------------------
    print("\nLSM shape (level, files, bytes):", store.db.level_summary())
    tiers = store.placement.tier_summary()
    print(f"local SSTable bytes : {tiers['local_bytes']:>10,}")
    print(f"cloud SSTable bytes : {tiers['cloud_bytes']:>10,}  "
          f"({tiers['demotions']} tables demoted)")
    print(f"pinned metadata     : {store.pcache.meta_bytes:>10,} bytes "
          f"(index+filter of every cloud table, kept local)")
    print(f"simulated elapsed   : {store.clock.now:>10.3f} s")

    # -- the operator surface ---------------------------------------------------
    # A snapshot keeps reading the value it saw when it was taken.
    snap = store.snapshot()
    store.put(b"event:00000001", b"rewritten")
    assert store.get(b"event:00000001", snapshot=snap).startswith(b"payload-1")
    store.release_snapshot(snap)

    # One cold get, layer by layer: which source served it and what it cost.
    why = store.explain(b"event:00000007")
    print("\nexplain:", " -> ".join(f"{layer} {outcome}" for layer, outcome in why.path))
    print(f"  {why.cloud_s * 1e3:.2f} ms cloud, {why.local_s * 1e3:.2f} ms local, "
          f"{why.bytes_fetched} bytes fetched")
    metrics = store.metrics()
    for name in ("flushes", "compaction.compactions", "demotions", "cloud.get_ops", "blocks.pcache"):
        print(f"  {name:<22} {metrics[name]}")
    print("\n".join(store.dump_metrics().splitlines()[:4]))

    # -- crash and recover ------------------------------------------------------
    store2 = store.reopen(crash=True)
    assert store2.get(b"user:alice") == b'{"city": "Wuhan"}'
    assert store2.get(b"event:00000000") is not None
    print(f"\ncrash-recovered in {store2.last_recovery_seconds*1e3:.2f} simulated ms "
          f"({store2.config.xwal.num_shards} WAL shards replayed in parallel)")
    store2.close()
    print("quickstart OK")


if __name__ == "__main__":
    main()
