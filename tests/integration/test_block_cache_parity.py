"""What the DRAM block cache holds, when, and at what charge — pinned.

The cache's hits, misses and evictions decide which reads reach the
persistent cache, the local device and the cloud, and so every simulated
figure the experiments publish. One scripted stream (point reads, a forward
and a reverse scan, a flush and a full compaction in the middle) records the
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
"""

import dataclasses
import zlib

from repro.mash.readahead import ReadaheadBuffer
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


EXPECTED = [
    (0, 492, 0, 0, 0, 1, 464, 32),
    (70, 664, 16, 7936, 70, 6, 509, 72),
    (108, 746, 15, 7692, 108, 48, 521, 88),
    (108, 791, 16, 8141, 108, 74, 527, 95),
    (108, 822, 15, 7763, 108, 78, 540, 99),
    (109, 1124, 0, 0, 109, 170, 693, 135),
    (109, 2167, 0, 0, 109, 308, 757, 391),
    (235, 2341, 15, 7679, 235, 308, 757, 435),
    (235, 2408, 15, 7682, 235, 325, 757, 451),
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
    fetches — summed over ``buffers``, every buffer built), COUNTERS,
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
    assert len(store.scan(key(900), key(1300), reverse=True)) == 400
    snap()
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
    assert len(store.scan(key(1200), None, reverse=True)) == 300
    snap()
    for i in range(2500):  # churn: enough admissions for slab compactions
        assert store.get(key(i * 611 % 1500)) is not None
    snap()
    store.close()
    return trace, spans_of


# fmt: off
STACK_EXPECTED = [
    ((5, 809, 276, 276, 274, 0, 1), (186, 38), (114, 1343, 640602, 815127),
     (0, 5, 224, 651, 76, 76, 38, 0, 0, 0, 63, 33, 0, 0, 0, 0), 2978374683, 2.7721108864999926),
    ((188, 1126, 351, 285, 482, 181, 3), (187, 90), (374, 1879, 821914, 980440),
     (0, 188, 277, 713, 284, 126, 63, 705, 205, 0, 63, 33, 0, 0, 0, 0), 1988501149, 6.728490201166656),
    ((188, 1127, 351, 285, 483, 182, 3), (187, 90), (375, 1879, 821914, 980440),
     (0, 188, 277, 713, 285, 126, 63, 707, 206, 0, 63, 33, 0, 0, 0, 0), 296170121, 6.743496801166656),
    ((188, 1127, 351, 285, 483, 182, 3), (187, 90), (375, 1879, 821914, 980440),
     (1, 188, 277, 713, 285, 126, 63, 709, 207, 0, 63, 33, 0, 0, 0, 0), 1721121936, 6.743496801166656),
    ((462, 1153, 351, 285, 509, 208, 4), (187, 90), (401, 2259, 987953, 1020371),
     (1, 462, 277, 713, 311, 126, 63, 1009, 207, 0, 63, 33, 0, 0, 0, 0), 4293987834, 7.167474891333289),
    ((463, 1153, 351, 285, 509, 208, 4), (187, 90), (401, 2260, 988475, 1020371),
     (1, 463, 277, 713, 311, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 1364473233, 7.167555152333289),
    ((478, 1198, 351, 285, 520, 219, 4), (212, 96), (418, 2278, 997748, 1026758),
     (1, 478, 308, 716, 322, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 3622360756, 7.42460843433329),
    ((478, 1202, 351, 285, 522, 221, 4), (212, 96), (420, 2280, 998805, 1028866),
     (1, 478, 308, 718, 324, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 3692700350, 7.454882655666625),
    ((479, 1208, 351, 285, 525, 224, 4), (212, 98), (425, 2282, 999858, 1028866),
     (1, 479, 310, 719, 327, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 3855473776, 7.530116107166625),
    ((479, 1269, 351, 285, 538, 236, 4), (246, 105), (445, 2289, 1003497, 1037145),
     (1, 479, 351, 726, 340, 126, 63, 1010, 207, 0, 63, 33, 0, 0, 0, 0), 3729071296, 7.831433620999964),
    ((485, 1293, 351, 285, 558, 256, 4), (246, 106), (466, 2298, 1007924, 1047964),
     (1, 485, 352, 729, 360, 126, 63, 1053, 220, 0, 63, 33, 0, 0, 0, 0), 2236116211, 7.891865707333299),
    ((533, 1519, 450, 351, 811, 382, 7), (298, 119), (519, 3173, 1360323, 1458997),
     (1, 533, 417, 878, 400, 144, 72, 1053, 220, 0, 87, 42, 0, 0, 0, 0), 1321188797, 9.153935100166638),
    ((549, 2878, 1419, 549, 1904, 907, 17), (1090, 287), (1024, 6399, 2698335, 2890406),
     (1, 549, 1377, 960, 737, 454, 227, 1053, 220, 0, 255, 49, 0, 0, 0, 0), 4074515055, 19.566131026166804),
    ((549, 3096, 1503, 549, 1960, 932, 18), (1225, 314), (1107, 6589, 2728793, 2943037),
     (158, 549, 1539, 960, 793, 510, 255, 1428, 220, 0, 255, 49, 0, 0, 0, 0), 2620722385, 20.83201223000022),
    ((559, 3175, 1503, 549, 1984, 955, 18), (1268, 326), (1143, 6599, 2734008, 2955738),
     (158, 559, 1594, 960, 817, 510, 255, 1428, 220, 0, 255, 49, 0, 0, 0, 0), 4076676325, 21.37403481733356),
    ((1559, 4675, 1503, 549, 3079, 2051, 34), (1270, 729), (2641, 9448, 3656624, 3992071),
     (158, 1559, 1999, 960, 1912, 510, 255, 3928, 220, 0, 255, 49, 0, 0, 0, 0), 747270562, 44.165903238999334),
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
        buffers.append(self)

    monkeypatch.setattr(ReadaheadBuffer, "__init__", recording)
    trace, spans_of = run_stack_script(buffers)
    for step, (got, expected) in enumerate(zip(trace, STACK_EXPECTED)):
        assert got == expected, step
    assert len(trace) == len(STACK_EXPECTED)
    assert spans_of == STACK_SPANS
