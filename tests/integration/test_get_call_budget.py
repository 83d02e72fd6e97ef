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
reads of stored keys and 50 scans of 20 rows under cProfile.
"""

import cProfile
import dataclasses
import pstats
import random

from repro.lsm.compaction import Compaction
from repro.lsm.options import Options
from repro.mash.store import RocksMashStore, StoreConfig

KEYS = 900
GETS = 500
SCANS = 50
ROWS_PER_SCAN = 20

# Measured when the read path was last tuned: 171.3 calls per get and 51.8
# per scanned row (at the parent of that change, where a block handed out
# internal-key bytes and every layer above split them again: 199.6 and 65.3;
# before the index, cached blocks and fences were parsed once: 281.8 and
# 87.8). Ceilings sit 10 % above.
CALLS_PER_GET_CEILING = 188.4
CALLS_PER_ROW_CEILING = 57.0


def build_store():
    """Every key on L2, a third rewritten on L1, a sixth on L0; every block read once."""
    options = dataclasses.replace(
        Options.small(),
        write_buffer_size=64 << 10,
        level0_file_num_compaction_trigger=1000,  # only this fixture compacts
        max_bytes_for_level_base=64 << 20,
    )
    config = StoreConfig().small()
    pcache = dataclasses.replace(config.pcache, data_budget_bytes=1 << 20)  # holds all of L2
    store = RocksMashStore.create(dataclasses.replace(config, options=options, pcache=pcache))
    rng = random.Random(23)
    keys = sorted(b"user%012d" % rng.randrange(10**12) for _ in range(KEYS))
    db = store.db
    for settle_on, tag, share in ((2, b"deep", 1), (1, b"mid-", 3), (0, b"top-", 6)):
        for key in rng.sample(keys, KEYS // share):
            store.put(key, tag * 25, sync=False)
        store.flush()
        for level in range(settle_on):
            files = list(db.versions.current.files[level])
            db._run_compaction(Compaction(level, files, [], 1.0))
    # Warm the persistent cache and open every reader — in shuffled order: a
    # sequential pass is served by readahead, which skips cache admission.
    for key in rng.sample(keys, len(keys)):
        store.get(key)
    return store, keys, rng


def profiled(work):
    profile = cProfile.Profile()
    profile.enable()
    try:
        work()
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls


def test_calls_per_get_and_per_scanned_row():
    store, keys, rng = build_store()
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
