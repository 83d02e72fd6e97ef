"""Real wall-clock microbenchmarks of the Python engine's hot paths.

Unlike the E-series (simulated time), these measure the actual CPU cost of
the reimplemented substrate — useful for tracking regressions in the
engine itself.
"""

import random

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import TableReader
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.bloom import BloomFilterPolicy
from repro.util.encoding import TYPE_VALUE, make_internal_key


def test_memtable_shuffled_insert_and_seek(benchmark):
    keys = [f"key{i:08d}".encode() for i in range(2000)]
    random.Random(1).shuffle(keys)
    target = make_internal_key(b"key00001000", 1 << 40, TYPE_VALUE)

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
    entries = [(f"key{i:06d}".encode(), b"v" * 64) for i in range(500)]

    def run():
        builder = BlockBuilder(16)
        for k, v in entries:
            builder.add(k, v)
        block = Block(builder.finish(), lambda key: key)  # plain byte order
        return sum(1 for _ in block.seek(b"key000250"))

    assert benchmark(run) == 250


def test_bloom_create_and_probe(benchmark):
    policy = BloomFilterPolicy(10)
    keys = [f"key{i}".encode() for i in range(2000)]

    def run():
        filt = policy.create_filter(keys)
        return sum(policy.key_may_match(k, filt) for k in keys[:500])

    assert benchmark(run) == 500


def test_table_point_lookups(benchmark):
    env = LocalEnv(LocalDevice(SimClock()))
    options = Options(block_size=4096, block_cache_bytes=0)
    builder = TableBuilder(options, env.new_writable_file("bench.sst"))
    for i in range(5000):
        builder.add(make_internal_key(f"key{i:08d}".encode(), 7, TYPE_VALUE), b"v" * 100)
    builder.finish()
    reader = TableReader(options, env.new_random_access_file("bench.sst"))
    probes = [make_internal_key(f"key{i:08d}".encode(), 100, TYPE_VALUE) for i in range(0, 5000, 50)]

    def run():
        return sum(reader.get(p) is not None for p in probes)

    assert benchmark(run) == len(probes)
