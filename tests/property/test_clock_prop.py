"""Property-based tests for SimClock fork/join/merge laws.

The whole timing model rests on these algebraic properties: forked children
accumulate independently, joining takes the max, and nesting composes — so
any fork/join program is deterministic regardless of how its branches are
arranged.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clock import ClockCharged, ForkJoinRegion, SimClock

durations = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)
starts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestForkJoinLaws:
    @given(starts, st.integers(min_value=1, max_value=8))
    def test_join_of_unadvanced_children_is_noop(self, start, n):
        clock = SimClock(now=start)
        children = [clock.child() for _ in range(n)]
        assert clock.join(children) == start
        assert clock.now == start

    @given(starts, durations)
    def test_join_is_max(self, start, work):
        clock = SimClock(now=start)
        children = [clock.child() for _ in range(len(work))]
        for child, seconds in zip(children, work):
            child.advance(seconds)
        assert clock.join(children) == pytest.approx(start + max(work))

    @given(starts, durations)
    def test_join_idempotent(self, start, work):
        clock = SimClock(now=start)
        children = [clock.child() for _ in range(len(work))]
        for child, seconds in zip(children, work):
            child.advance(seconds)
        first = clock.join(children)
        assert clock.join(children) == first

    @given(starts, durations, durations)
    def test_nested_fork_join_deterministic(self, start, outer, inner):
        """A fork inside a fork joins to start + max(outer_i + max(inner))."""

        def run() -> float:
            clock = SimClock(now=start)
            children = [clock.child() for _ in range(len(outer))]
            for child, seconds in zip(children, outer):
                child.advance(seconds)
                grandchildren = [child.child() for _ in range(len(inner))]
                for grandchild, nested in zip(grandchildren, inner):
                    grandchild.advance(nested)
                child.join(grandchildren)
            return clock.join(children)

        first, second = run(), run()
        assert first == second
        assert first == pytest.approx(start + max(outer) + max(inner))

    @given(starts, durations)
    def test_merge_never_rewinds(self, start, work):
        """merge() with back-dated children keeps the parent monotonic."""
        clock = SimClock(now=start)
        children = [clock.child(start=start * 0.5) for _ in work]
        for child, seconds in zip(children, work):
            child.advance(seconds)
        before = clock.now
        after = clock.merge(children)
        assert after >= before
        assert after == max(before, max(child.now for child in children))

    @given(starts)
    def test_child_rejects_negative_start(self, start):
        clock = SimClock(now=start)
        with pytest.raises(ValueError):
            clock.child(start=-1.0)


class _Host(ClockCharged):
    def __init__(self, clock: SimClock) -> None:
        self.clock = clock


class TestClockScope:
    @given(starts, durations)
    def test_scope_restores_on_exit(self, start, work):
        clock = SimClock(now=start)
        host = _Host(clock)
        for seconds in work:
            child = clock.child()
            with host.clock_scope(child):
                host.clock.advance(seconds)
            assert host.clock is clock

    @given(starts)
    def test_scope_restores_on_exception(self, start):
        clock = SimClock(now=start)
        host = _Host(clock)
        with pytest.raises(RuntimeError):
            with host.clock_scope(clock.child()):
                raise RuntimeError("boom")
        assert host.clock is clock

    @given(starts, durations)
    def test_nested_scopes_restore_intermediate(self, start, work):
        clock = SimClock(now=start)
        host = _Host(clock)
        outer = clock.child()
        with host.clock_scope(outer):
            for seconds in work:
                inner = outer.child()
                with host.clock_scope(inner):
                    assert host.clock is inner
                    host.clock.advance(seconds)
                assert host.clock is outer
        assert host.clock is clock

    @given(starts, durations)
    def test_region_equals_manual_fork_join(self, start, work):
        manual = SimClock(now=start)
        children = [manual.child() for _ in range(len(work))]
        for child, seconds in zip(children, work):
            child.advance(seconds)
        manual.join(children)

        clock = SimClock(now=start)
        host = _Host(clock)
        region = ForkJoinRegion(clock, [host])
        for seconds in work:
            with region.branch():
                host.clock.advance(seconds)
        region.join()
        assert clock.now == manual.now
