"""Python-call budget of the read path: one ``get``, one scanned row.

The sibling of ``test_compaction_call_budget``. What caps the reading
workloads' wall time in this engine is the number of Python calls between
``StoreFacade.get`` and the bytes of a block: routing through the version's
fences, the bloom probe, the index search, the block search. Each of those
structures is decoded once — entries already split into ``(user_key,
neg_trailer, value)`` — and searched with a native ``bisect``; a change that
puts a decode or a ``key=`` callback back on the per-lookup path fails
here, before a benchmark run. Call counts repeat exactly for fixed inputs,
so tier-1 can hold them to a ceiling where a wall-clock assertion could not
be trusted.

The fixture is one seeded store with three populated levels (L0, L1, L2 —
the deepest in the cloud behind a warm persistent cache), then 500 point
reads of stored keys and 50 scans of 20 rows under cProfile. The miss-path
row is the same tree behind starved caches (1 KiB DRAM, 4 KiB persistent
cache): 500 reads of keys whose only version is on L2, each one walking the
whole block stack — DRAM miss, pcache miss, readahead state, cloud GET,
pcache admission and eviction, DRAM admission.
"""

import cProfile
import dataclasses
import gc
import random

from repro.lsm.compaction import Compaction
from repro.lsm.options import Options
from repro.mash.store import RocksMashStore, StoreConfig

KEYS = 900
GETS = 500
SCANS = 50
ROWS_PER_SCAN = 20

# Measured when the read path last changed — ``TableReader.get`` lost its
# per-block filter probe and ``DB._get_at`` its second candidate source: 127.7
# calls per warm get, 42.8 per scanned row, 211.1 per cold get (at the parent
# of that change, counted the same way: 132.2, 42.8 and 216.1). Ceilings sit
# 10 % above.
CALLS_PER_GET_CEILING = 140.5
CALLS_PER_ROW_CEILING = 47.0
CALLS_PER_COLD_GET_CEILING = 232.2


def build_store(*, dram_bytes=None, pcache_bytes=1 << 20):
    """Every key on L2, a third rewritten on L1, a sixth on L0; every block
    read once. Returns the store, all keys, the keys whose only version is the
    one on L2, and the generator."""
    options = dataclasses.replace(
        Options.small(),
        write_buffer_size=64 << 10,
        level0_file_num_compaction_trigger=1000,  # only this fixture compacts
        max_bytes_for_level_base=64 << 20,
    )
    if dram_bytes is not None:
        options = dataclasses.replace(options, block_cache_bytes=dram_bytes)
    config = StoreConfig().small()
    pcache = dataclasses.replace(config.pcache, data_budget_bytes=pcache_bytes)  # 1 MiB holds L2
    store = RocksMashStore.create(dataclasses.replace(config, options=options, pcache=pcache))
    rng = random.Random(23)
    keys = sorted(b"user%012d" % rng.randrange(10**12) for _ in range(KEYS))
    db = store.db
    deep_only = set(keys)
    for settle_on, tag, share in ((2, b"deep", 1), (1, b"mid-", 3), (0, b"top-", 6)):
        written = rng.sample(keys, KEYS // share)
        if settle_on < 2:
            deep_only -= set(written)
        for key in written:
            store.put(key, tag * 25, sync=False)
        store.flush()
        for level in range(settle_on):
            files = list(db.versions.current.files[level])
            db._run_compaction(Compaction(level, files, [], 1.0))
    # Warm the persistent cache and open every reader — in shuffled order: a
    # sequential pass is served by readahead, which skips cache admission.
    for key in rng.sample(keys, len(keys)):
        store.get(key)
    return store, keys, sorted(deep_only), rng


def profiled(work):
    """Calls made by ``work()``, summed over the profiler's own rows:
    ``pstats`` keys a function by (file, line, name), under which every
    dataclass ``__init__`` is ``("<string>", 2, "__init__")`` and all but one
    are dropped — which one varies from run to run. The collector is off
    meanwhile: hypothesis (a pytest plugin here) hangs a Python callback on
    every collection, and how many fall inside ``work`` is not a property of
    the read path."""
    profile = cProfile.Profile()
    gc.disable()
    profile.enable()
    try:
        work()
    finally:
        profile.disable()
        gc.enable()
    return sum(row.callcount for row in profile.getstats())


def test_calls_per_get_and_per_scanned_row():
    store, keys, _, rng = build_store()
    assert [len(files) > 0 for files in store.db.versions.current.files[:4]] == [
        True,
        True,
        True,
        False,
    ]
    wanted = [rng.choice(keys) for _ in range(GETS)]
    starts = [rng.randrange(len(keys) - ROWS_PER_SCAN) for _ in range(SCANS)]
    found = []
    rows = []

    def gets():
        for key in wanted:
            found.append(store.get(key))

    def scans():
        for start in starts:
            rows.extend(store.scan(keys[start], keys[start + ROWS_PER_SCAN]))

    scans()  # blocks only a scan reaches (every key in them shadowed) warm up too
    del rows[:]
    cloud_gets_before = store.tracer.event_count("cloud_get")
    get_calls = profiled(gets)
    scan_calls = profiled(scans)

    # The fixture did what it is for: every read answered, from the local tier.
    assert len(found) == GETS and None not in found
    assert len(rows) == SCANS * ROWS_PER_SCAN
    assert store.tracer.event_count("cloud_get") == cloud_gets_before
    assert store.tracer.event_count("dram_hit") > 0
    assert store.tracer.event_count("pcache_hit") > 0

    assert get_calls / GETS <= CALLS_PER_GET_CEILING, get_calls / GETS
    assert scan_calls / len(rows) <= CALLS_PER_ROW_CEILING, scan_calls / len(rows)


def test_calls_per_cold_get():
    store, _, deep_only, rng = build_store(dram_bytes=1 << 10, pcache_bytes=4 << 10)
    wanted = [rng.choice(deep_only) for _ in range(GETS)]
    found = []

    def gets():
        for key in wanted:
            found.append(store.get(key))

    stats = store.pcache.stats
    before = (
        store.tracer.event_count("cloud_get"), stats.admissions, stats.evictions,
        store.db.block_cache.misses,
    )  # fmt: skip
    get_calls = profiled(gets)
    cloud_gets, admissions, evictions, dram_misses = (
        after - start
        for after, start in zip(
            (store.tracer.event_count("cloud_get"), stats.admissions, stats.evictions,
             store.db.block_cache.misses),
            before,
        )
    )  # fmt: skip

    # The fixture did what it is for: nearly every read went all the way down.
    assert found == [b"deep" * 25] * GETS
    assert cloud_gets >= 0.8 * GETS and admissions == cloud_gets
    assert evictions >= 0.9 * cloud_gets and dram_misses >= cloud_gets

    assert get_calls / GETS <= CALLS_PER_COLD_GET_CEILING, get_calls / GETS
