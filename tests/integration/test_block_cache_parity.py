"""What the DRAM block cache holds, when, and at what charge — pinned.

The cache's hits, misses and evictions decide which reads reach the
persistent cache, the local device and the cloud, and so every simulated
figure the experiments publish. One scripted stream (point reads, a forward
and a reverse scan, a flush and a full compaction in the middle, sorted view
off and on) records the cache's counters and the tracer's block-source
events after every step. The expected values were captured at the commit
*before* the cache began holding parsed blocks (raw payloads, charged
``len(payload)``); a change in what is cached, when, or at what charge fails
here rather than surfacing as a drift in an E-series table.
"""

import dataclasses

import pytest

from repro.mash.store import RocksMashStore, StoreConfig

EVENTS = ("dram_hit", "pcache_hit", "local_read", "cloud_get")


def key(i):
    return b"user%06d" % i


def run_script(sorted_view):
    """Per step: (hits, misses, len, used_bytes, dram_hit, pcache_hit, local_read, cloud_get)."""
    config = StoreConfig().small()
    config = dataclasses.replace(
        config, options=dataclasses.replace(config.options, sorted_view=sorted_view)
    )
    store = RocksMashStore.create(config)
    cache = store.db.block_cache
    trace = []

    def snap():
        trace.append(
            (cache.hits, cache.misses, len(cache), cache.used_bytes)
            + tuple(store.tracer.event_count(event) for event in EVENTS)
        )

    for i in range(1200):
        store.put(key(i * 7 % 1200), b"a%04d" % i * 12, sync=False)
    store.flush()
    snap()
    for i in range(0, 1200, 5):  # cold point reads, then a hot subset twice
        assert store.get(key(i)) is not None
    snap()
    for _ in range(2):
        for i in range(0, 300, 5):
            assert store.get(key(i)) is not None
    assert store.get(b"absent") is None
    snap()
    assert len(list(store.scan(key(100), key(400)))) == 300
    snap()
    assert len(list(store.db.scan_reverse(key(700), key(900)))) == 200
    snap()
    for i in range(0, 1200, 3):  # overwrite a third, then flush + compact
        store.put(key(i), b"b%04d" % i * 12, sync=False)
    store.flush()
    snap()
    store.compact_range(None, None)
    snap()
    for i in range(0, 1200, 4):
        assert store.get(key(i)) is not None
    snap()
    assert len(list(store.scan(key(0), key(250)))) == 250
    assert len(list(store.db.scan_reverse(key(1000), None))) == 200
    snap()
    store.close()
    return trace


EXPECTED = {
    False: [
        (0, 492, 0, 0, 0, 1, 464, 32),
        (70, 664, 16, 7936, 70, 6, 509, 72),
        (108, 746, 15, 7692, 108, 48, 521, 88),
        (108, 791, 16, 8141, 108, 74, 527, 95),
        (108, 822, 15, 7763, 108, 78, 540, 99),
        (109, 1124, 0, 0, 109, 170, 693, 135),
        (109, 2167, 0, 0, 109, 308, 757, 391),
        (235, 2341, 15, 7679, 235, 308, 757, 435),
        (235, 2408, 15, 7682, 235, 325, 757, 451),
    ],
    True: [
        (0, 492, 0, 0, 0, 1, 464, 32),
        (70, 664, 16, 7936, 70, 6, 509, 72),
        (108, 746, 15, 7692, 108, 48, 521, 88),
        (108, 791, 16, 8141, 108, 74, 527, 95),
        (173, 823, 15, 7761, 173, 78, 540, 99),
        (174, 1125, 0, 0, 174, 170, 693, 135),
        (174, 2168, 0, 0, 174, 309, 757, 391),
        (300, 2342, 15, 7679, 300, 309, 757, 435),
        (330, 2410, 15, 7754, 330, 327, 757, 451),
    ],
}


@pytest.mark.parametrize("sorted_view", [False, True])
def test_cache_counters_match_the_raw_payload_cache(sorted_view):
    assert run_script(sorted_view) == EXPECTED[sorted_view]
