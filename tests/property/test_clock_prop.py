"""Property-based tests for SimClock fork/join/merge laws.

The whole timing model rests on these algebraic properties: forked children
accumulate independently, joining takes the max, and nesting composes — so
any fork/join program is deterministic regardless of how its branches are
arranged. A store runs on one clock: its branches and request scopes move
that clock's time and hand it back.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clock import ForkJoinRegion, SimClock

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
            child.advance(seconds, "cpu")
        assert clock.join(children) == pytest.approx(start + max(work))

    @given(starts, durations)
    def test_join_idempotent(self, start, work):
        clock = SimClock(now=start)
        children = [clock.child() for _ in range(len(work))]
        for child, seconds in zip(children, work):
            child.advance(seconds, "cpu")
        first = clock.join(children)
        assert clock.join(children) == first

    @given(starts, durations, durations)
    def test_nested_fork_join_deterministic(self, start, outer, inner):
        """A fork inside a fork joins to start + max(outer_i + max(inner))."""

        def run() -> float:
            clock = SimClock(now=start)
            children = [clock.child() for _ in range(len(outer))]
            for child, seconds in zip(children, outer):
                child.advance(seconds, "cpu")
                grandchildren = [child.child() for _ in range(len(inner))]
                for grandchild, nested in zip(grandchildren, inner):
                    grandchild.advance(nested, "cpu")
                child.join(grandchildren)
            return clock.join(children)

        first, second = run(), run()
        assert first == second
        assert first == pytest.approx(start + max(outer) + max(inner))

    @given(starts, durations)
    def test_merge_never_rewinds(self, start, work):
        """A non-strict join of back-dated branches keeps the clock monotonic."""
        clock = SimClock(now=start)
        region = ForkJoinRegion(clock)
        for seconds in work:
            with region.branch(start=start * 0.5):
                clock.advance(seconds, "cpu")
        before = clock.now
        after = region.join(strict=False)
        assert after >= before
        assert after == max(before, max(branch.end for branch in region.branches))

    @given(starts)
    def test_child_rejects_negative_start(self, start):
        clock = SimClock(now=start)
        with pytest.raises(ValueError):
            clock.child(start=-1.0)


class TestClockScope:
    @given(starts, durations)
    def test_scope_restores_on_exit(self, start, work):
        clock = SimClock(now=start)
        region = ForkJoinRegion(clock)
        for seconds in work:
            with region.branch() as branch:
                assert branch is clock
                clock.advance(seconds, "cpu")
            assert clock.now == start
            request = clock.child()
            with clock.scope(request):
                clock.advance(seconds, "cpu")
            assert clock.now == start
            assert request.now == start + seconds

    @given(starts)
    def test_scope_restores_on_exception(self, start):
        clock = SimClock(now=start)
        with pytest.raises(RuntimeError):
            with ForkJoinRegion(clock).branch():
                clock.advance(1.0, "cpu")
                raise RuntimeError("boom")
        assert clock.now == start
        request = clock.child(start=start + 1.0)
        with pytest.raises(RuntimeError):
            with clock.scope(request):
                clock.advance(1.0, "cpu")
                raise RuntimeError("boom")
        assert clock.now == start
        assert request.now == (start + 1.0) + 1.0

    @given(starts, durations)
    def test_nested_scopes_restore_intermediate(self, start, work):
        clock = SimClock(now=start)
        request = clock.child(start=start + 1.0)
        with clock.scope(request):
            outer = ForkJoinRegion(clock)
            with outer.branch():
                clock.advance(0.5, "cpu")
                for seconds in work:
                    inner = ForkJoinRegion(clock)
                    with inner.branch():
                        clock.advance(seconds, "cpu")
                    assert clock.now == (start + 1.0) + 0.5
            assert clock.now == start + 1.0
        assert clock.now == start

    @given(starts, durations)
    def test_region_equals_manual_fork_join(self, start, work):
        manual = SimClock(now=start)
        children = [manual.child() for _ in range(len(work))]
        for child, seconds in zip(children, work):
            child.advance(seconds, "cpu")
        manual.join(children)

        clock = SimClock(now=start)
        region = ForkJoinRegion(clock)
        for seconds in work:
            with region.branch():
                clock.advance(seconds, "cpu")
        region.join()
        assert clock.now == manual.now


class TestAdvance:
    def test_advance_names_its_tier(self):
        with pytest.raises(TypeError):
            SimClock().advance(1.0)  # type: ignore[call-arg]
