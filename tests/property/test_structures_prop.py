"""Property-based tests for core data structures (bloom, block, table,
memtable, histogram, cache)."""

from collections import OrderedDict
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.block_cache import BlockPath, BlockStack, LRUBlockCache
from repro.lsm.format import BlockHandle, seal_block
from repro.lsm.memtable import GetResult, MemTable
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import TableReader
from repro.metrics.latency import LatencyHistogram
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.bloom import BloomFilterPolicy
from repro.util.encoding import (
    TYPE_DELETION,
    TYPE_VALUE,
    internal_order,
    make_internal_key,
    seek_goal,
)

keys = st.binary(min_size=0, max_size=40)
values = st.binary(min_size=0, max_size=120)


def ik(user_key, seq=1):
    """Internal-key bytes: what a block stores for a test's user key."""
    return make_internal_key(user_key, seq, TYPE_VALUE)


def rows(items, seq=1):
    """``(user_key, value)`` pairs written at ``seq``, as readers decode them."""
    return [(k, -((seq << 8) | TYPE_VALUE), v) for k, v in items]


class TestBloom:
    @given(st.sets(keys, max_size=300), st.integers(2, 16))
    def test_no_false_negatives(self, key_set, bits):
        policy = BloomFilterPolicy(bits_per_key=bits)
        filt = policy.create_filter(sorted(key_set))
        assert all(policy.key_may_match(k, filt) for k in key_set)


class TestBlock:
    @given(
        st.dictionaries(keys, values, min_size=0, max_size=150),
        st.integers(1, 32),
    )
    def test_roundtrip_sorted(self, entries, restart_interval):
        items = sorted(entries.items())
        builder = BlockBuilder(restart_interval)
        builder.fill((ik(k), v) for k, v in items)
        block = Block(builder.finish())
        assert list(block) == rows(items)

    @given(
        st.dictionaries(keys, values, min_size=1, max_size=100),
        keys,
        st.integers(1, 16),
    )
    def test_seek_matches_reference(self, entries, target, restart_interval):
        items = sorted(entries.items())
        builder = BlockBuilder(restart_interval)
        builder.fill((ik(k), v) for k, v in items)
        block = Block(builder.finish())
        expected = rows((k, v) for k, v in items if k >= target)
        assert list(block.seek(seek_goal(target))) == expected
        # A goal below the stored sequence lands past the target's own entry.
        assert list(block.seek(seek_goal(target, 0))) == rows(
            (k, v) for k, v in items if k > target
        )


class TestTable:
    @given(
        st.dictionaries(keys, values, min_size=1, max_size=120),
        st.integers(128, 2048),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_and_point_lookups(self, entries, block_size):
        env = LocalEnv(LocalDevice(SimClock()))
        options = Options(block_size=block_size, block_cache_bytes=0)
        items = rows(sorted(entries.items()), seq=7)
        builder = TableBuilder(options, env.new_writable_file("t.sst"))
        builder.fill(items)
        builder.finish()
        reader = TableReader(options, env.new_random_access_file("t.sst"))
        assert list(chain.from_iterable(reader.block_lists())) == items
        for user_key, v in entries.items():
            assert reader.get(seek_goal(user_key, 100)) == (user_key, -((7 << 8) | TYPE_VALUE), v)


class TestMemTable:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["put", "del"]), keys, values),
            max_size=150,
        )
    )
    def test_matches_dict_model(self, ops):
        mt = MemTable()
        model: dict[bytes, bytes | None] = {}
        for seq, (kind, k, v) in enumerate(ops, start=1):
            if kind == "put":
                mt.add(seq, TYPE_VALUE, k, v)
                model[k] = v
            else:
                mt.add(seq, TYPE_DELETION, k, b"")
                model[k] = None
        for k, expected in model.items():
            result = mt.get(k, 1 << 40)
            if expected is None:
                assert result.state == GetResult.DELETED
            else:
                assert result.state == GetResult.FOUND
                assert result.value == expected

    @given(
        st.lists(st.tuples(keys, values), min_size=1, max_size=80),
        st.integers(1, 100),
    )
    def test_snapshot_reads_see_prefix(self, puts, at):
        mt = MemTable()
        for seq, (k, v) in enumerate(puts, start=1):
            mt.add(seq, TYPE_VALUE, k, v)
        at = min(at, len(puts))
        model = {}
        for k, v in puts[:at]:
            model[k] = v
        for k, expected in model.items():
            result = mt.get(k, at)
            assert result.state == GetResult.FOUND
            assert result.value == expected

    @given(
        st.sets(
            st.tuples(keys, st.integers(0, 500), st.sampled_from([TYPE_VALUE, TYPE_DELETION])),
            max_size=120,
        ),
        st.tuples(keys, st.integers(0, 500), st.sampled_from([TYPE_VALUE, TYPE_DELETION])),
    )
    def test_entries_match_sorted_model_slices(self, parts, target_parts):
        """``entries(target)`` is the suffix of the sorted model from the
        target on."""
        mt = MemTable()
        for k, seq, vtype in parts:
            mt.add(seq, vtype, k, k + b"=%d" % seq)
        by_bytes = sorted(
            ((make_internal_key(k, seq, vtype), k + b"=%d" % seq) for k, seq, vtype in parts),
            key=lambda row: internal_order(row[0]),
        )
        model = [(*internal_order(ikey), value) for ikey, value in by_bytes]
        assert list(mt) == model
        assert len(mt) == len(model)
        target = internal_order(make_internal_key(*target_parts))
        below = [row for row in model if row[:2] < target]
        assert list(mt.entries(target)) == model[len(below) :]


class TestLatencyHistogram:
    @given(st.lists(st.floats(min_value=1e-9, max_value=50.0), min_size=1, max_size=300))
    def test_percentiles_monotone_and_bounded(self, samples):
        h = LatencyHistogram()
        for s in samples:
            h.record(s)
        p50, p90, p99 = h.percentile(50), h.percentile(90), h.percentile(99)
        assert p50 <= p90 <= p99 <= h.max_seen * 1.0001
        assert h.percentile(100) <= max(samples) * 1.0001
        assert h.count == len(samples)

    @given(st.lists(st.floats(min_value=1e-9, max_value=50.0), min_size=1, max_size=100))
    def test_mean_exact(self, samples):
        import math

        h = LatencyHistogram()
        for s in samples:
            h.record(s)
        assert math.isclose(h.mean, sum(samples) / len(samples), rel_tol=1e-9)


class TableOfBlocks:
    """A table file whose block at offset ``i`` is ``payloads[i]``, sealed."""

    def __init__(self, payloads):
        self.sealed = [seal_block(payload) for payload in payloads]

    def read(self, offset, length):
        return self.sealed[offset][:length]


class TestLRUCache:
    @given(
        st.lists(st.binary(min_size=1, max_size=30), min_size=21, max_size=21),
        st.lists(st.integers(0, 20), max_size=100),
        st.integers(16, 200),
    )
    def test_never_exceeds_budget_and_serves_exact_bytes(self, values, reads, budget):
        """``BlockStack.block`` over one table, against a model LRU of
        ``(offset, charge)``: a read hits exactly when the model holds its
        block and then serves the very block it admitted; the cache holds
        the model's blocks in the model's order, within the budget. A block
        larger than the budget is read every time and never admitted."""
        key = make_internal_key(b"k", 1, TYPE_VALUE)
        payloads = []
        for value in values:
            builder = BlockBuilder()
            builder.fill([(key, value)])
            payloads.append(builder.finish())
        cache = LRUBlockCache(budget)
        stack = BlockStack("f", TableOfBlocks(payloads), BlockPath(cache))
        model: OrderedDict[int, int] = OrderedDict()
        held: dict[int, Block] = {}
        for offset in reads:
            hits = cache.hits
            block = stack.block(BlockHandle(offset, len(payloads[offset])))
            assert list(block) == [(*internal_order(key), values[offset])]
            if offset in model:
                assert cache.hits == hits + 1 and block is held[offset]
                model.move_to_end(offset)
            else:
                assert cache.hits == hits
                if block.size <= budget:
                    model[offset] = block.size
                    held[offset] = block
                    while sum(model.values()) > budget:
                        model.popitem(last=False)
            assert list(cache._entries) == [("f", offset) for offset in model]
            assert cache._used == sum(model.values()) <= budget
        assert cache.hits + cache.misses == len(reads)
