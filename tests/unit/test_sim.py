"""Unit tests for the simulation substrate: clock, latency, faults."""

import pytest

from repro.errors import IOErrorSim
from repro.sim.clock import ForkJoinRegion, SimClock, StopwatchRegion
from repro.sim.failure import FaultInjector, RetryPolicy
from repro.sim.latency import LatencyModel, cloud_object_storage, nvme_ssd


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5, "cpu")
        clock.advance(0.5, "cpu")
        assert clock.now == pytest.approx(2.0)

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1, "cpu")

    def test_child_starts_at_parent(self):
        clock = SimClock()
        clock.advance(3.0, "cpu")
        children = [clock.child() for _ in range(4)]
        assert all(c.now == pytest.approx(3.0) for c in children)

    def test_join_takes_max(self):
        clock = SimClock()
        kids = [clock.child() for _ in range(3)]
        kids[0].advance(1.0, "cpu")
        kids[1].advance(5.0, "cpu")
        kids[2].advance(2.0, "cpu")
        clock.join(kids)
        assert clock.now == pytest.approx(5.0)

    def test_join_empty_noop(self):
        clock = SimClock(now=2.0)
        clock.join([])
        assert clock.now == pytest.approx(2.0)

    def test_join_rewind_rejected(self):
        clock = SimClock()
        kids = [clock.child()]
        clock.advance(10.0, "cpu")
        with pytest.raises(ValueError):
            clock.join(kids)

    def test_child_before_time_zero_rejected(self):
        with pytest.raises(ValueError):
            SimClock().child(start=-1.0)

    def test_stopwatch(self):
        clock = SimClock()
        with StopwatchRegion(clock) as sw:
            clock.advance(0.25, "cpu")
        assert sw.elapsed == pytest.approx(0.25)


class TestSlottedRegion:
    # (ready_at, duration): back-dated and current entries, more than the
    # slots, so some branches queue behind a busy slot.
    TASKS = [(None, 0.3), (2.0, 0.5), (9.5, 0.2), (None, 1.0), (3.0, 0.4), (None, 0.1), (12.0, 0.2)]

    def old_slot_loop(self, now, slots):
        """Where the demotion batch's hand-written slot loop started each task."""
        slot_free = [0.0] * slots
        starts = []
        for ready_at, duration in self.TASKS:
            slot = min(range(slots), key=lambda i: slot_free[i])
            start = max(ready_at if ready_at is not None else now, slot_free[slot])
            starts.append(start)
            slot_free[slot] = start + duration
        return starts

    @pytest.mark.parametrize("slots", [1, 2, 4])
    def test_branches_start_where_the_slot_loop_started_them(self, slots):
        clock = SimClock(now=10.0)
        region = ForkJoinRegion(clock, slots=slots)
        starts = []
        for ready_at, duration in self.TASKS:
            with region.branch(start=ready_at) as child:
                starts.append(child.now)
                child.advance(duration, "cpu")
        region.join(strict=False)
        assert starts == self.old_slot_loop(10.0, slots)
        assert clock.now == max(start + d for start, (_, d) in zip(starts, self.TASKS))

    def test_without_slots_every_branch_starts_at_once(self):
        clock = SimClock(now=1.0)
        region = ForkJoinRegion(clock)
        for _ in range(6):
            with region.branch() as child:
                assert child.now == 1.0
                child.advance(0.5, "cpu")
        assert region.join() == 1.5


class TestLatencyModel:
    def test_read_cost_components(self):
        model = LatencyModel(1e-3, 2e-3, 1e6, 2e6)
        assert model.read_cost(0) == pytest.approx(1e-3)
        assert model.read_cost(1_000_000) == pytest.approx(1e-3 + 1.0)
        assert model.write_cost(2_000_000) == pytest.approx(2e-3 + 1.0)

    def test_cloud_much_slower_than_ssd_for_small_reads(self):
        ssd, cloud = nvme_ssd(), cloud_object_storage()
        assert cloud.read_cost(4096) > 50 * ssd.read_cost(4096)

    def test_cloud_rtt_configurable(self):
        assert cloud_object_storage(rtt=0.1).read_cost(0) == pytest.approx(0.1)


class TestFaultInjector:
    def test_no_faults_by_default(self):
        inj = FaultInjector()
        for _ in range(100):
            inj.check("op")
        assert inj.injected == 0

    def test_scheduled_failure_fires_once(self):
        inj = FaultInjector()
        inj.schedule_failure("boom")
        with pytest.raises(IOErrorSim, match="boom"):
            inj.check("op")
        inj.check("op")  # next call passes

    def test_error_rate_deterministic_with_seed(self):
        def run():
            inj = FaultInjector(error_rate=0.3, seed=99)
            outcomes = []
            for _ in range(50):
                try:
                    inj.check("op")
                    outcomes.append(True)
                except IOErrorSim:
                    outcomes.append(False)
            return outcomes

        assert run() == run()
        assert not all(run())

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(error_rate=1.5)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(initial_backoff=0.01, multiplier=2.0, max_backoff=0.05)
        assert policy.backoff(0) == pytest.approx(0.01)
        assert policy.backoff(1) == pytest.approx(0.02)
        assert policy.backoff(10) == pytest.approx(0.05)
