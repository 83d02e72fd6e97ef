"""A compaction reads its inputs in one pass that leaves every block cache alone.

A merge reads each input once, front to back. Through the point-read path it
would look every block up in DRAM and in the persistent cache, admit it to
both and push the working set out — the cache cliff the paper's
compaction-aware layout exists to avoid. The pass keeps one side effect: each
block it reads is heated once, and inheritance and pre-warm are planned from
that heat.
"""

import dataclasses

from repro.lsm.compaction import Compaction
from repro.lsm.format import table_file_name
from repro.mash.store import RocksMashStore, StoreConfig
from repro.storage.env import CLOUD


def test_a_compaction_leaves_the_caches_alone_and_heats_each_input_block_once():
    config = StoreConfig().small()
    options = dataclasses.replace(
        config.options,
        write_buffer_size=64 << 10,
        target_file_size_base=64 << 10,
        level0_file_num_compaction_trigger=1000,  # only this test compacts
    )
    placement = dataclasses.replace(config.placement, cloud_level=1)
    store = RocksMashStore.create(dataclasses.replace(config, options=options, placement=placement))
    db = store.db
    name_of = lambda meta: table_file_name(config.db_prefix, meta.number)
    offsets_of = {}
    db.listeners.on_flush.append(
        lambda event: offsets_of.update(
            {name_of(event.meta): [block.handle.offset for block in event.properties.blocks]}
        )
    )

    def write_table(prefix, tag):
        for i in range(300):
            store.put(b"%s%05d" % (prefix, i), tag * 10, sync=False)
        store.flush()
        (newest,) = [meta for meta in db.versions.current.files[0] if name_of(meta) not in seen]
        seen.add(name_of(newest))
        return newest

    seen = set()
    untouched = write_table(b"b", b"bbbb")  # stays on L0, local
    older = write_table(b"a", b"old-")
    db._run_compaction(Compaction(0, [older], [], 1.0))  # a trivial move: now on L1, in the cloud
    newer = write_table(b"a", b"new-")
    assert store.env.tier_of(name_of(older)) == CLOUD
    assert store.get(b"b00007") == b"bbbb" * 10  # one block of the untouched table in DRAM

    def block_numbers():
        return {k: v for k, v in store.metrics().items() if k.startswith("blocks.")}

    at_commit = {}

    def capture(event):
        heat = store.heat._heat  # file -> block offset -> heat
        at_commit["heat"] = {
            name: [heat.get(name, {}).get(o, 0.0) for o in offsets_of[name]]
            for name in map(name_of, event.input_files)
        }
        at_commit["pcache data bytes"] = store.pcache.data_bytes

    db.listeners.on_compaction.append(capture)
    stats = store.pcache.stats
    before = (block_numbers(), stats.data_hits, stats.data_misses, store.pcache.data_bytes)
    prewarmed = store.heat.prewarmed_blocks
    db._run_compaction(Compaction(0, [newer], [older], 1.0))

    assert (block_numbers(), stats.data_hits, stats.data_misses) == before[:3]
    assert at_commit["pcache data bytes"] == before[3]  # nothing admitted, even for a moment
    assert store.heat.prewarmed_blocks == prewarmed
    assert at_commit["heat"] == {
        name: [1.0] * len(offsets_of[name]) for name in (name_of(older), name_of(newer))
    }
    dram_hits = block_numbers()["blocks.dram"]
    assert store.get(b"b00007") == b"bbbb" * 10
    assert block_numbers()["blocks.dram"] == dram_hits + 1  # still cached
    assert store.get(b"a00007") == b"new-" * 10
