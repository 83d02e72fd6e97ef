"""Per-level bloom allocation (repro.lsm.filters) and its Options plumbing.

Covers the :class:`FilterAllocation` carrier, the Monkey allocation math,
and ``Options.table_filter_policy``, where a table being built resolves
its level's filter.
"""

import pytest

from repro.lsm.filters import MAX_BITS_PER_KEY, FilterAllocation, monkey_allocation
from repro.lsm.options import Options
from repro.util.bloom import BloomFilterPolicy


class TestFilterAllocation:
    def test_validation(self):
        with pytest.raises(ValueError):
            FilterAllocation(bits_per_level=())
        with pytest.raises(ValueError):
            FilterAllocation(bits_per_level=(10, -1))
        with pytest.raises(ValueError):
            FilterAllocation(bits_per_level=(MAX_BITS_PER_KEY + 1,))

    def test_bits_for_clamps_to_deepest_entry(self):
        alloc = FilterAllocation(bits_per_level=(14, 9, 4))
        assert [alloc.bits_for(lvl) for lvl in range(6)] == [14, 9, 4, 4, 4, 4]

    def test_policy_for_zero_bits_is_none(self):
        alloc = FilterAllocation(bits_per_level=(10, 0))
        assert alloc.policy_for(0) == BloomFilterPolicy(bits_per_key=10)
        assert alloc.policy_for(1) is None
        assert alloc.policy_for(5) is None

    def test_uniform_and_describe(self):
        alloc = FilterAllocation.uniform(10, 3)
        assert alloc.bits_per_level == (10, 10, 10)
        assert alloc.describe() == "10/10/10"


class TestMonkeyAllocation:
    def test_bits_decrease_with_depth(self):
        alloc = monkey_allocation(
            [1 << 20, 10 << 20, 100 << 20],
            budget_bits_per_key=10,
            size_multiplier=10,
        )
        bits = alloc.bits_per_level
        assert all(a >= b for a, b in zip(bits, bits[1:]))
        assert bits[0] > bits[-1]

    def test_weighted_memory_within_uniform_budget(self):
        level_bytes = [1 << 20, 10 << 20, 100 << 20]
        budget = 10
        alloc = monkey_allocation(
            level_bytes, budget_bits_per_key=budget, size_multiplier=10
        )
        total = sum(level_bytes)
        spend = sum(
            (b / total) * alloc.bits_for(i) for i, b in enumerate(level_bytes)
        )
        assert spend <= budget + 1e-9

    def test_zero_budget_and_empty_tree(self):
        assert monkey_allocation(
            [1 << 20], budget_bits_per_key=0, size_multiplier=10
        ).bits_per_level == (0,)
        assert monkey_allocation(
            [0, 0], budget_bits_per_key=10, size_multiplier=10
        ).bits_per_level == (10, 10)

    def test_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            monkey_allocation([1], budget_bits_per_key=10, size_multiplier=1)


class TestOptionsFilterPolicy:
    def test_bits_per_key_synthesizes_default_policy(self, monkeypatch):
        monkeypatch.setattr("repro.lsm.options.BLOOM_BITS_PER_KEY", 8)
        assert Options().table_filter_policy(3) == BloomFilterPolicy(bits_per_key=8)

    def test_table_filter_policy_prefers_allocation(self):
        options = Options(filter_allocation=FilterAllocation(bits_per_level=(12, 6, 0)))
        assert options.table_filter_policy(0) == BloomFilterPolicy(bits_per_key=12)
        assert options.table_filter_policy(2) is None
