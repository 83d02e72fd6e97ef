"""Memory-budget property of the Monkey allocation (repro.lsm.filters).

A Monkey allocation never spends more weighted filter memory on the
observed tree shape than the uniform baseline it replaces, for *any*
level-size vector — and its bits never increase with depth.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.filters import monkey_allocation


class TestMemoryBudget:
    @given(
        level_bytes=st.lists(
            st.integers(min_value=0, max_value=1 << 32), min_size=1, max_size=8
        ),
        budget=st.integers(min_value=1, max_value=30),
        multiplier=st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_allocation_never_exceeds_uniform_budget(self, level_bytes, budget, multiplier):
        alloc = monkey_allocation(
            level_bytes, budget_bits_per_key=budget, size_multiplier=multiplier
        )
        total = sum(level_bytes)
        if total == 0:
            assert max(alloc.bits_per_level) <= budget
            return
        spend = sum(
            (b / total) * alloc.bits_for(i) for i, b in enumerate(level_bytes)
        )
        assert spend <= budget + 1e-9
        # Bits never increase with depth (Monkey's shape) and stay capped.
        bits = alloc.bits_per_level
        assert all(a >= b for a, b in zip(bits, bits[1:]))
        assert all(0 <= b <= 30 for b in bits)
