"""Property-based tests for core data structures (bloom, block, table,
memtable, histogram, cache)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.block_cache import LRUBlockCache
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
        for k, v in items:
            builder.add(ik(k), v)
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
        for k, v in items:
            builder.add(ik(k), v)
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
        for item in items:
            builder.add(*item)
        builder.finish()
        reader = TableReader(options, env.new_random_access_file("t.sst"))
        assert list(reader.entries()) == items
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

    @staticmethod
    def _state(h):
        return (h._counts, h.count, h.total, h.min_seen, h.max_seen)

    @given(
        st.lists(st.floats(min_value=1e-9, max_value=50.0), max_size=120),
        st.lists(st.floats(min_value=1e-9, max_value=50.0), max_size=120),
    )
    def test_merge_is_order_independent_and_matches_union(self, left, right):
        # Either operand (including an empty one) folded either way must
        # land on exactly the state of recording the union of samples.
        a, b, union = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for s in left:
            a.record(s)
        for s in right:
            b.record(s)
        for s in left + right:
            union.record(s)
        ab = LatencyHistogram()
        ab.merge(a)
        ab.merge(b)
        ba = LatencyHistogram()
        ba.merge(b)
        ba.merge(a)
        assert self._state(ab) == self._state(ba)
        assert ab._counts == union._counts
        assert ab.count == union.count
        assert ab.min_seen == union.min_seen
        assert ab.max_seen == union.max_seen
        assert abs(ab.total - union.total) <= 1e-9 * max(1.0, union.total)

    def test_merge_rejects_different_bucketing(self):
        import pytest

        a = LatencyHistogram()
        b = LatencyHistogram(growth=1.5)
        with pytest.raises(ValueError):
            a.merge(b)


class TestLRUCache:
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.binary(min_size=1, max_size=30)),
            max_size=100,
        ),
        st.integers(16, 200),
    )
    def test_never_exceeds_budget_and_serves_exact_bytes(self, ops, budget):
        key = make_internal_key(b"k", 1, TYPE_VALUE)
        cache = LRUBlockCache(budget)
        shadow: dict[int, tuple[Block, bytes]] = {}
        for offset, value in ops:
            builder = BlockBuilder()
            builder.add(key, value)
            block = Block(builder.finish())
            cache.put("f", offset, block)
            if block.size <= budget:
                shadow[offset] = (block, value)
            # An oversized block is not admitted and must not disturb an
            # existing entry (real blocks are immutable, so a conflicting
            # payload at the same offset cannot occur in practice).
            assert cache.used_bytes <= budget
            got = cache.get("f", offset)
            if got is not None:
                assert got is shadow[offset][0]
                assert list(got) == [(*internal_order(key), shadow[offset][1])]
