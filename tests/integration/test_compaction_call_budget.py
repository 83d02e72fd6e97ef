"""Python-call budget of the compaction inner loop.

Compaction is where the writing workloads spend their wall time, and what
caps it in this engine is the number of Python calls per entry merged:
read a block, merge, write a block, build the filter, inherit heat. Call
counts repeat exactly for fixed inputs, so tier-1 can hold them to a
ceiling where a wall-clock assertion could not be trusted. A change that
puts a per-entry call back fails here, before a benchmark run.

The fixture is one store, two passes of seeded puts with the first pass
settled on L2, reads on a fixed subset so input blocks carry heat, then
the two compactions every write eventually pays for: L0 -> L1 (nine
overlapping runs) and L1 -> L2 (onto the older, heated tables).
"""

import cProfile
import dataclasses
import pstats
import random

from repro.lsm.compaction import Compaction
from repro.lsm.options import Options
from repro.mash.store import RocksMashStore, StoreConfig

ENTRIES_PER_PASS = 2000

# Measured when compaction last changed how it reads — each input in one
# sequential pass that skips the block caches, and the live-file set of the
# input deletes computed once: 43.91 calls per entry over the two
# compactions, 0.626 of them in mash/layout.py (at the parent of that change,
# every input block through the table's stack: 53.09; before the table
# builder pulled the merged stream: 58.27; before keys were split once and
# filter keys hashed in lanes: 79.6; before heat inheritance bisected ranges:
# 138.1 and 13.5). Ceilings sit 10 % above. Issuing every input's first read
# on a fork/join branch before the merge (one branch per input, its context
# managers included) brought the first figure to 45.60 under the same ceiling.
CALLS_PER_ENTRY_CEILING = 48.3
LAYOUT_CALLS_PER_ENTRY_CEILING = 0.688


def build_store():
    """Nine heated L0 runs over a heated L2; only this test's compactions run."""
    options = dataclasses.replace(
        Options.small(),
        write_buffer_size=32 << 10,
        level0_file_num_compaction_trigger=1000,  # only this test compacts
        max_bytes_for_level_base=64 << 20,
    )
    store = RocksMashStore.create(dataclasses.replace(StoreConfig().small(), options=options))
    rng = random.Random(17)
    keys = [b"user%012d" % rng.randrange(10**12) for _ in range(ENTRIES_PER_PASS)]

    def one_pass(tag):
        for key in rng.sample(keys, len(keys)):
            store.put(key, tag * 25, sync=False)
        store.flush()
        for key in keys[::7]:
            assert store.get(key) == tag * 25

    one_pass(b"old-")
    db = store.db
    for level in (0, 1):  # settle the first pass on L2
        db._run_compaction(Compaction(level, list(db.versions.current.files[level]), [], 1.0))
    one_pass(b"new-")
    return store


def profiled_compaction(db, level):
    """Run ``level`` -> ``level + 1`` under cProfile; (stats, entries merged)."""
    merged = []
    hook = lambda event: merged.append(
        event.dropped_entries + sum(out.properties.num_entries for out in event.outputs)
    )
    version = db.versions.current
    compaction = Compaction(
        level, list(version.files[level]), list(version.files[level + 1]), score=1.0
    )
    db.listeners.on_compaction.append(hook)
    profile = cProfile.Profile()
    profile.enable()
    try:
        db._run_compaction(compaction)
    finally:
        profile.disable()
        db.listeners.on_compaction.remove(hook)
    return pstats.Stats(profile), merged[0]


def test_calls_per_entry_compacted():
    store = build_store()
    db = store.db
    assert [len(files) for files in db.versions.current.files[:3]] == [9, 0, 61]
    prewarmed_before = store.heat.prewarmed_blocks

    total_calls = layout_calls = entries = 0
    for level in (0, 1):
        stats, merged = profiled_compaction(db, level)
        entries += merged
        total_calls += stats.total_calls
        layout_calls += sum(
            calls
            for (filename, _, _), (_, calls, *_) in stats.stats.items()
            if filename.endswith("mash/layout.py")
        )

    # The fixture did what it is for: every entry went through both merges,
    # and heat was there to inherit.
    assert entries == ENTRIES_PER_PASS + 2 * ENTRIES_PER_PASS
    assert store.heat.prewarmed_blocks > prewarmed_before
    assert layout_calls > 0

    assert total_calls / entries <= CALLS_PER_ENTRY_CEILING
    assert layout_calls / entries <= LAYOUT_CALLS_PER_ENTRY_CEILING
