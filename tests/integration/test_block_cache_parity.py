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

Both scripts' scan steps moved once more, on purpose, when a scan began
reading each cloud table through a buffer of its own: a scan's miss on a
cloud table now issues one ranged GET sized by the scan's ``limit`` and
``end``, where the table's readahead detector used to spend two block-sized
GETs proving the scan before its 4 KiB ramp began. The literals were
re-recorded by running both scripts on that change: every step before the
first scan step (the first script's steps 0–2, the stack script's 0–5) came
out equal to the old literals, and the first scan step is the first to move
(``cloud_get`` 63 → 62 in the first script). From there on the stack
script's readahead column sums only the tables' own detectors, which point
gets alone reach; the scan's buffers are not among them.

Both scripts moved once more, on purpose, when point gets stopped reading
ahead: a point get's miss on a cloud table is now one block-sized GET, where
the table's detector used to turn two adjacent misses into a ranged read.
The stack script lost its readahead column with the detector it summed. The
literals were re-recorded by running both scripts on that change: step 0 of
each came out equal to the old literals, and the first step of cold point
reads (step 1 of each) is the first to move (``cloud_get`` 40 → 132 in the
first script; ``readahead_hit`` 53 → 0 in the stack script).
"""

import dataclasses
import zlib

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
    (70, 172, 16, 7936, 70, 5, 145, 132),
    (108, 254, 15, 7692, 108, 40, 157, 167),
    (108, 299, 16, 8141, 108, 64, 163, 171),
    (108, 299, 0, 0, 108, 64, 191, 171),
    (108, 299, 0, 0, 108, 64, 207, 171),
    (234, 473, 15, 7679, 234, 64, 207, 345),
    (234, 510, 15, 7679, 234, 64, 207, 350),
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


def run_stack_script():
    """Per step: (pcache data hits, data misses, meta hits, meta misses,
    admissions, evictions, slab compactions), COUNTERS, STACK_EVENTS counts,
    crc32 of the step's ``(op, events)`` span list, and the simulated clock.
    Labelled steps also keep their span list."""
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
    ((0, 0, 276, 276, 198, 0, 0), (38, 821, 648825, 759166),
     (0, 0, 0, 142, 0, 76, 38, 0, 0, 0, 63, 33, 0, 0, 0, 0), 3757877503, 1.3037603096666646),
    ((223, 277, 351, 285, 419, 194, 3), (259, 1502, 875392, 956479),
     (0, 223, 0, 204, 221, 126, 63, 705, 205, 0, 63, 33, 0, 0, 0, 0), 1580503153, 4.688618635166635),
    ((223, 278, 351, 285, 420, 195, 3), (260, 1502, 875392, 958657),
     (0, 223, 0, 204, 222, 126, 63, 707, 206, 0, 63, 33, 0, 0, 0, 0), 296170121, 4.703726687166635),
    ((223, 278, 351, 285, 420, 195, 3), (260, 1502, 875392, 958657),
     (1, 223, 0, 204, 222, 126, 63, 709, 207, 0, 63, 33, 0, 0, 0, 0), 1721121936, 4.703726687166635),
    ((498, 303, 351, 285, 445, 220, 3), (285, 1777, 1017325, 971585),
     (1, 498, 0, 204, 247, 126, 63, 1009, 207, 0, 63, 33, 0, 0, 0, 0), 2549497580, 5.101568147333273),
    ((499, 303, 351, 285, 445, 220, 3), (285, 1778, 1017847, 971585),
     (1, 499, 0, 204, 247, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 1364473233, 5.101648408333273),
    ((514, 348, 351, 285, 451, 226, 3), (291, 1796, 1027120, 973688),
     (1, 514, 36, 207, 253, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 970909070, 5.193466446833272),
    ((514, 352, 351, 285, 452, 227, 3), (292, 1798, 1028177, 975865),
     (1, 514, 37, 209, 254, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 2312438077, 5.208740714166606),
    ((517, 356, 351, 285, 454, 229, 3), (294, 1802, 1030273, 975865),
     (1, 517, 38, 210, 256, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 3594308096, 5.239081549666605),
    ((523, 380, 351, 285, 475, 250, 3), (315, 1811, 1034843, 986542),
     (1, 523, 38, 213, 277, 126, 63, 1053, 220, 0, 63, 33, 0, 0, 0, 0), 3722543108, 5.299513574166606),
    ((523, 380, 450, 351, 681, 356, 6), (336, 2536, 1368101, 1377706),
     (1, 523, 38, 241, 277, 144, 72, 1053, 220, 0, 87, 42, 0, 0, 0, 0), 3271145321, 5.858742540499936),
    ((523, 380, 1419, 549, 1411, 577, 11), (504, 5236, 2567779, 2483010),
     (1, 523, 38, 261, 277, 454, 227, 1053, 220, 0, 255, 49, 0, 0, 0, 0), 2678183634, 9.764116048499943),
    ((523, 598, 1503, 549, 1629, 764, 14), (722, 5665, 2653393, 2682362),
     (158, 523, 38, 261, 495, 510, 255, 1428, 220, 0, 255, 49, 0, 0, 0, 0), 936157034, 13.084322494333291),
    ((523, 642, 1503, 549, 1635, 770, 14), (728, 5665, 2653393, 2686711),
     (158, 523, 76, 261, 501, 510, 255, 1428, 220, 0, 255, 49, 0, 0, 0, 0), 2051873902, 13.174810543666627),
    ((1927, 1738, 1503, 549, 2731, 1866, 29), (1824, 8800, 3760343, 3694708),
     (158, 1927, 76, 261, 1597, 510, 255, 3928, 220, 0, 255, 49, 0, 0, 0, 0), 2798003238, 29.945623804167663),
]

STACK_SPANS = {
    'cold get': [('get', ['bloom_checked', 'bloom_useful', 'bloom_checked', 'cloud_get'])],
    'dram-warm get': [('get', ['bloom_checked', 'bloom_useful', 'bloom_checked', 'dram_hit'])],
    'pcache-warm get': [('get', ['bloom_checked', 'pcache_hit'])],
    'short scan': [('scan', ['local_read', 'cloud_get', 'readahead_hit', 'local_read'])],
    'limited scan': [('scan', ['local_read', 'pcache_hit', 'cloud_get', 'readahead_hit', 'pcache_hit', 'pcache_hit', 'cloud_get'])],
}
# fmt: on


def test_every_source_below_dram_matches_the_loader_chain():
    trace, spans_of = run_stack_script()
    for step, (got, expected) in enumerate(zip(trace, STACK_EXPECTED)):
        assert got == expected, step
    assert len(trace) == len(STACK_EXPECTED)
    assert spans_of == STACK_SPANS
