"""What the DRAM block cache holds, when, and at what charge — pinned.

The cache's hits, misses and evictions decide which reads reach the
persistent cache, the local device and the cloud, and so every simulated
figure the experiments publish. One scripted stream (point reads, scans,
a flush and a full compaction in the middle) records the
cache's counters and the tracer's block-source events after every step. The
expected values were captured at the commit *before* the cache began holding
parsed blocks (raw payloads, charged ``len(payload)``); a change in what is
cached, when, or at what charge fails here rather than surfacing as a drift
in an E-series table.

The second script pins the whole stack below DRAM the same way — persistent
cache, scan-primed buffers, per-table readahead, demand reads — with both
caches starved (2 KiB DRAM, 16 KiB pcache) so that admission, eviction and
slab compaction all fire. Its literals were recorded at the commit *before*
the loader closures became the block stack (``repro.lsm.block_cache``); the
closures are gone, so the numbers are the oracle.

Both scripts were re-recorded once, on purpose, when compaction stopped
reading its inputs through the stack: each input is now one sequential pass
that looks up and admits nothing, counts no source and posts no event. Both
stores compact from their first flushes on, so every step moved — the
compaction reads left the counters, and the reads after them met other cache
contents. The labelled steps' span lists and the read-only steps' span
checksums came out unchanged. Only the stack's own readahead buffers are
summed; a compaction's pass is not one of its sources.

The stack script's clock field (the last of each step) was re-recorded once
more, alone, when compaction began issuing its inputs' first reads as
concurrent requests before the merge: every request, counter, event and
span list stayed equal on all 16 steps, and only the simulated time moved.

When reverse scans were deleted, both scripts lost their reverse-scan steps
(one step of each, and the reverse half of each script's closing scan step).
The steps after them were re-recorded by running the shortened scripts on
the code *before* the deletion: every step up to the first removed one came
out equal to the old literals, so the forward path is the oracle still.
"""

import dataclasses
import zlib

from repro.lsm.block_cache import ReadaheadBuffer
from repro.mash.store import RocksMashStore, StoreConfig

EVENTS = ("dram_hit", "pcache_hit", "local_read", "cloud_get")


def key(i):
    return b"user%06d" % i


def run_script():
    """Per step: (hits, misses, len, used_bytes, dram_hit, pcache_hit, local_read, cloud_get)."""
    store = RocksMashStore.create(StoreConfig().small())
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
    snap()
    store.close()
    return trace


EXPECTED = [
    (0, 0, 0, 0, 0, 0, 100, 0),
    (70, 172, 16, 7936, 70, 5, 145, 40),
    (108, 254, 15, 7692, 108, 47, 157, 56),
    (108, 299, 16, 8141, 108, 73, 163, 63),
    (108, 299, 0, 0, 108, 73, 191, 63),
    (108, 299, 0, 0, 108, 73, 207, 63),
    (234, 473, 15, 7679, 234, 73, 207, 107),
    (234, 510, 15, 7679, 234, 83, 207, 117),
]


def test_cache_counters_match_the_raw_payload_cache():
    assert run_script() == EXPECTED


# -- every source below DRAM ------------------------------------------------

STACK_EVENTS = (
    "dram_hit", "pcache_hit", "readahead_hit", "local_read", "cloud_get",
    "pcache_meta_hit", "pcache_footer_hit",
    "bloom_checked", "bloom_useful", "bloom_false_positive",
    "demotion", "compaction", "seek_fanout", "prefetch_issue", "prefetch_hit", "prefetch_waste",
)  # fmt: skip
COUNTERS = ("cloud.get_ops", "local.read_ops", "local.read_bytes", "local.write_bytes")


def run_stack_script(buffers):
    """Per step: (pcache data hits, data misses, meta hits, meta misses,
    admissions, evictions, slab compactions), (readahead sequential hits,
    fetches — summed over ``buffers``, every scan buffer built), COUNTERS,
    STACK_EVENTS counts, crc32 of the step's ``(op, events)`` span list, and
    the simulated clock. Labelled steps also keep their span list."""
    config = StoreConfig().small()
    config = dataclasses.replace(
        config,
        options=dataclasses.replace(config.options, block_cache_bytes=2 << 10),
        pcache=dataclasses.replace(config.pcache, data_budget_bytes=16 << 10, sync_every_n_appends=4),
    )
    store = RocksMashStore.create(config)
    store.tracer.capacity = 1 << 16  # no step may outrun the span ring
    store.tracer.spans = type(store.tracer.spans)(maxlen=store.tracer.capacity)
    trace = []
    spans_of = {}

    def snap(label=None):
        stats = store.pcache.stats
        spans = [(span.op, span.events) for span in store.tracer.spans]
        store.tracer.spans.clear()
        if label is not None:
            spans_of[label] = spans
        trace.append(
            (
                (stats.data_hits, stats.data_misses, stats.meta_hits, stats.meta_misses,
                 stats.admissions, stats.evictions, stats.slab_compactions),
                (sum(b.stats.sequential_hits for b in buffers), sum(b.stats.fetches for b in buffers)),
                tuple(store.counters.get(name) for name in COUNTERS),
                tuple(store.tracer.event_count(event) for event in STACK_EVENTS),
                zlib.crc32(repr(spans).encode()),
                store.clock.now,
            )
        )  # fmt: skip

    for i in range(1500):
        store.put(key(i * 7 % 1500), b"a%04d" % i * 12, sync=False)
    store.flush()
    snap()
    for i in range(500):  # cold point reads in no block order: every source down to the cloud
        assert store.get(key(i * 611 % 1500)) is not None
    snap()
    assert store.get(key(700)) is not None
    snap("cold get")
    assert store.get(key(700)) is not None
    snap("dram-warm get")
    for _ in range(3):  # a hot subset: pcache and DRAM hits beside evictions
        for i in range(100):
            assert store.get(key(i * 37 % 200)) is not None
    assert store.get(b"absent") is None
    snap()
    assert store.get(key(37)) is not None
    snap("pcache-warm get")
    assert len(store.scan(key(100), key(500))) == 400
    snap()
    assert len(store.scan(key(800), key(812))) == 12
    snap("short scan")
    assert len(store.scan(key(40), None, 30)) == 30
    snap("limited scan")
    assert len(store.multi_get([key(i) for i in range(5, 1500, 50)])) == 30
    snap()
    for i in range(0, 1500, 3):  # overwrite a third: flushes, compactions, demotions
        store.put(key(i), b"b%04d" % i * 12, sync=False)
    store.flush()
    snap()
    store.compact_range(None, None)
    snap()
    for i in range(0, 1500, 4):
        assert store.get(key(i)) is not None
    snap()
    assert len(store.scan(key(0), key(300))) == 300
    snap()
    for i in range(2500):  # churn: enough admissions for slab compactions
        assert store.get(key(i * 611 % 1500)) is not None
    snap()
    store.close()
    return trace, spans_of


# fmt: off
STACK_EXPECTED = [
    ((0, 0, 276, 276, 198, 0, 0), (0, 0), (38, 821, 648825, 759166),
     (0, 0, 0, 142, 0, 76, 38, 0, 0, 0, 63, 33, 0, 0, 0, 0), 3757877503, 1.3037603096666646),
    ((183, 317, 351, 285, 406, 181, 2), (1, 52), (298, 1356, 829971, 923221),
     (0, 183, 53, 204, 208, 126, 63, 705, 205, 0, 63, 33, 0, 0, 0, 0), 1988501149, 5.260158702666651),
    ((183, 318, 351, 285, 407, 182, 2), (1, 52), (299, 1356, 829971, 923221),
     (0, 183, 53, 204, 209, 126, 63, 707, 206, 0, 63, 33, 0, 0, 0, 0), 296170121, 5.275165302666651),
    ((183, 318, 351, 285, 407, 182, 2), (1, 52), (299, 1356, 829971, 923221),
     (1, 183, 53, 204, 209, 126, 63, 709, 207, 0, 63, 33, 0, 0, 0, 0), 1721121936, 5.275165302666651),
    ((457, 344, 351, 285, 433, 208, 3), (1, 52), (325, 1736, 995869, 965115),
     (1, 457, 53, 204, 235, 126, 63, 1009, 207, 0, 63, 33, 0, 0, 0, 0), 4293987834, 5.699244630999949),
    ((458, 344, 351, 285, 433, 208, 3), (1, 52), (325, 1737, 996391, 965115),
     (1, 458, 53, 204, 235, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 1364473233, 5.699324891999949),
    ((473, 389, 351, 285, 444, 219, 3), (26, 58), (342, 1755, 1005664, 971574),
     (1, 473, 84, 207, 246, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 3622360756, 5.956378221999951),
    ((473, 393, 351, 285, 446, 221, 3), (26, 58), (344, 1757, 1006721, 971574),
     (1, 473, 84, 209, 248, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 3692700350, 5.986551037999952),
    ((474, 399, 351, 285, 449, 224, 3), (26, 60), (349, 1759, 1007774, 973681),
     (1, 474, 86, 210, 251, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 3855473776, 6.061885894166619),
    ((479, 424, 351, 285, 469, 244, 3), (26, 62), (371, 1767, 1011824, 984355),
     (1, 479, 88, 213, 271, 126, 63, 1053, 220, 0, 63, 33, 0, 0, 0, 0), 4218092678, 6.122317967999955),
    ((479, 424, 450, 351, 675, 350, 5), (26, 62), (392, 2371, 1318951, 1345693),
     (1, 479, 88, 241, 271, 144, 72, 1053, 220, 0, 87, 42, 0, 0, 0, 0), 3271145321, 6.66883441183329),
    ((479, 424, 1419, 549, 1405, 571, 11), (26, 62), (560, 5186, 2544109, 2478957),
     (1, 479, 88, 261, 271, 454, 227, 1053, 220, 0, 255, 49, 0, 0, 0, 0), 2678183634, 10.574207805833352),
    ((479, 642, 1503, 549, 1461, 596, 12), (161, 89), (643, 5385, 2579261, 2536002),
     (158, 479, 250, 261, 327, 510, 255, 1428, 220, 0, 255, 49, 0, 0, 0, 0), 2620722385, 11.841014299333363),
    ((479, 686, 1503, 549, 1473, 608, 12), (187, 95), (661, 5385, 2579261, 2542530),
     (158, 479, 282, 261, 339, 510, 255, 1428, 220, 0, 255, 49, 0, 0, 0, 0), 1810447631, 12.111655913833358),
    ((1489, 2176, 1503, 549, 2561, 1696, 27), (187, 497), (2151, 8128, 3481418, 3547471),
     (158, 1489, 684, 261, 1427, 510, 255, 3928, 220, 0, 255, 49, 0, 0, 0, 0), 1917169469, 34.7714539405007),
]

STACK_SPANS = {
    'cold get': [('get', ['bloom_checked', 'bloom_useful', 'bloom_checked', 'cloud_get'])],
    'dram-warm get': [('get', ['bloom_checked', 'bloom_useful', 'bloom_checked', 'dram_hit'])],
    'pcache-warm get': [('get', ['bloom_checked', 'pcache_hit'])],
    'short scan': [('scan', ['local_read', 'cloud_get', 'cloud_get', 'local_read'])],
    'limited scan': [('scan', ['local_read', 'pcache_hit', 'cloud_get', 'readahead_hit', 'cloud_get', 'cloud_get', 'readahead_hit'])],
}
# fmt: on


def test_every_source_below_dram_matches_the_loader_chain(monkeypatch):
    buffers = []
    build = ReadaheadBuffer.__init__

    def recording(self, *args, **kwargs):
        build(self, *args, **kwargs)
        if not self.eager:  # a compaction's pass is no source of the stack
            buffers.append(self)

    monkeypatch.setattr(ReadaheadBuffer, "__init__", recording)
    trace, spans_of = run_stack_script(buffers)
    for step, (got, expected) in enumerate(zip(trace, STACK_EXPECTED)):
        assert got == expected, step
    assert len(trace) == len(STACK_EXPECTED)
    assert spans_of == STACK_SPANS
