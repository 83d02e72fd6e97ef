"""Real wall-clock microbenchmarks of the Python engine's hot paths.

Unlike the E-series (simulated time), these measure the actual CPU cost of
the reimplemented substrate — useful for tracking regressions in the
engine itself.
"""

import random

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.compaction import Compaction, CompactionEvent, CompactionOutput
from repro.lsm.db import DB
from repro.lsm.format import BlockHandle
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.table_builder import BlockMeta, TableBuilder, TableProperties
from repro.lsm.table_reader import TableReader
from repro.lsm.version import FileMetaData
from repro.mash.layout import BlockHeatTracker
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.bloom import BloomFilterPolicy
from repro.util.encoding import TYPE_VALUE, make_internal_key, seek_goal


def test_memtable_shuffled_insert_and_seek(benchmark):
    keys = [f"key{i:08d}".encode() for i in range(2000)]
    random.Random(1).shuffle(keys)
    target = seek_goal(b"key00001000", 1 << 40)

    def insert_all_then_seek():
        mt = MemTable()
        for seq, k in enumerate(keys, start=1):
            mt.add(seq, TYPE_VALUE, k, b"v")
        return len(mt), sum(1 for _ in mt.entries(target))

    assert benchmark(insert_all_then_seek) == (2000, 1000)


def test_memtable_add_and_get(benchmark):
    def run():
        mt = MemTable()
        for i in range(1000):
            mt.add(i + 1, TYPE_VALUE, f"k{i:06d}".encode(), b"v" * 100)
        hits = sum(
            mt.get(f"k{i:06d}".encode(), 1 << 40).value is not None for i in range(1000)
        )
        return hits

    assert benchmark(run) == 1000


def test_block_build_and_seek(benchmark):
    entries = [
        (make_internal_key(f"key{i:06d}".encode(), 7, TYPE_VALUE), b"v" * 64) for i in range(500)
    ]

    def run():
        builder = BlockBuilder(16)
        builder.fill(entries)
        return sum(1 for _ in Block(builder.finish()).seek(seek_goal(b"key000250")))

    assert benchmark(run) == 250


def test_table_build(benchmark):
    """The write side of a flush or a merge: 2 000 sorted entries (24 B keys,
    100 B values) through ``TableBuilder.fill`` at 512 B blocks — order check,
    key rebuild, prefix encode, seal and CRC per block, filter, index."""
    options = Options(block_size=512)
    entries = [
        (f"user{i * 7919:020d}".encode(), -(((i % 50 + 1) << 8) | TYPE_VALUE), b"v" * 100)
        for i in range(2000)
    ]

    def run():
        # A fresh device per round: a device refuses to create a file twice.
        env = LocalEnv(LocalDevice(SimClock()))
        builder = TableBuilder(options, env.new_writable_file("bench.sst"))
        builder.fill(iter(entries))
        return builder.finish().num_entries

    assert benchmark(run) == 2000


def test_bloom_create_and_probe(benchmark):
    policy = BloomFilterPolicy(10)
    keys = [f"key{i}".encode() for i in range(2000)]

    def run():
        filt = policy.create_filter(keys)
        return sum(policy.key_may_match(k, filt) for k in keys[:500])

    assert benchmark(run) == 500


def test_bloom_build(benchmark):
    """One filter over 260 sixteen-byte keys: a compaction output's here."""
    policy = BloomFilterPolicy(10)
    keys = [f"user{i * 7919:012d}".encode() for i in range(260)]
    assert len(benchmark(policy.create_filter, keys)) == 326


def test_table_point_lookups(benchmark):
    env = LocalEnv(LocalDevice(SimClock()))
    options = Options(block_size=4096, block_cache_bytes=0)
    builder = TableBuilder(options, env.new_writable_file("bench.sst"))
    neg_trailer = -((7 << 8) | TYPE_VALUE)
    builder.fill((f"key{i:08d}".encode(), neg_trailer, b"v" * 100) for i in range(5000))
    builder.finish()
    reader = TableReader(options, env.new_random_access_file("bench.sst"))
    probes = [seek_goal(f"key{i:08d}".encode(), 100) for i in range(0, 5000, 50)]

    def run():
        return sum(reader.get(p) is not None for p in probes)

    assert benchmark(run) == len(probes)


def _read_db():
    """A flushed 5 000-key DB whose 64 KiB block cache holds the hot range."""
    options = Options(write_buffer_size=4 << 20, block_size=512, block_cache_bytes=64 << 10)
    db = DB.open(LocalEnv(LocalDevice(SimClock())), "db/", options)
    for i in range(5000):
        db.put(f"key{i:08d}".encode(), b"v" * 100, sync=False)
    db.flush()
    return db


def test_point_get_cached_block(benchmark):
    """Point reads served by a block already parsed in the DRAM cache: fence
    routing, bloom probe, parsed-index bisect, cached-block seek."""
    db = _read_db()
    probes = [f"key{i:08d}".encode() for i in range(1000, 1400, 4)]
    for key in probes:
        db.get(key)  # the 100 blocks fit the cache
    misses = db.block_cache.misses

    def run():
        return sum(db.get(key) is not None for key in probes)

    assert benchmark(run) == len(probes)
    assert db.block_cache.misses == misses


def test_seek_then_scan(benchmark):
    """Bounded scans: one index seek, one block seek, then twenty rows."""
    db = _read_db()
    starts = [f"key{i:08d}".encode() for i in range(1000, 1400, 8)]
    ends = [f"key{i + 20:08d}".encode() for i in range(1000, 1400, 8)]

    def run():
        return sum(len(list(db.scan(begin, end))) for begin, end in zip(starts, ends))

    assert benchmark(run) == 20 * len(starts)


def test_compaction_merge(benchmark):
    """One L0 -> L1 compaction: four overlapping runs of 500 entries each,
    through block decode, the heap merge, block encode and the bloom filter."""
    options = Options(
        write_buffer_size=1 << 20,
        block_size=512,
        target_file_size_base=16 << 10,
        level0_file_num_compaction_trigger=1000,  # the benchmark compacts, not put()
        block_cache_bytes=0,
    )
    keys = [f"key{i:08d}".encode() for i in range(1000)]
    rng = random.Random(3)

    def four_runs():
        db = DB.open(LocalEnv(LocalDevice(SimClock())), "db/", options)
        for _ in range(4):
            for key in rng.sample(keys, 500):
                db.put(key, b"v" * 100, sync=False)
            db.flush()
        return (db,), {}

    def compact(db):
        db._run_compaction(Compaction(0, list(db.versions.current.files[0]), [], 1.0))
        return db

    db = benchmark.pedantic(compact, setup=four_runs, rounds=5)
    assert db.compaction_stats.entries_dropped + sum(1 for _ in db.scan()) == 2000


def test_plan_inheritance(benchmark):
    """Heat inheritance for one wide compaction: 8 input tables of 200 blocks,
    every third block hot, onto 40 output tables of 40 blocks."""
    ikey = lambda i: make_internal_key(f"key{i:08d}".encode(), 7, TYPE_VALUE)
    name_of = lambda number: f"db/{number:06d}.sst"
    file_meta = lambda number: FileMetaData(number, 1 << 20, b"", b"")

    def blocks(first, count, stride, width):
        return [
            BlockMeta(
                ikey(first + i * stride), ikey(first + i * stride + width), BlockHandle(i * 600, 512)
            )
            for i in range(count)
        ]

    inputs = {number: blocks(number, 200, 8, 7) for number in range(1, 9)}
    outputs = {100 + n: blocks(n * 40, 40, 1, 0) for n in range(40)}
    event = CompactionEvent(
        level=0,
        output_level=1,
        input_files=[file_meta(number) for number in inputs],
        outputs=[
            CompactionOutput(file_meta(number), TableProperties(blocks=metas))
            for number, metas in outputs.items()
        ],
        dropped_entries=0,
    )

    def heated_tracker():
        tracker = BlockHeatTracker()
        for number, metas in (inputs | outputs).items():
            tracker.register_file(name_of(number), metas)
        for number, metas in inputs.items():
            for meta in metas[::3]:
                tracker.record_access(name_of(number), meta.handle.offset, weight=9.0)
        return (tracker,), {}

    def plan(tracker):
        return len(tracker.plan_inheritance(event, name_of))

    assert benchmark.pedantic(plan, setup=heated_tracker, rounds=5) == 256
