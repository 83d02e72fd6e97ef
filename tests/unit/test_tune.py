"""Unit tests for the workload-adaptive tuning subsystem (repro.tune).

Covers the Monkey allocation math, the per-level FilterAllocation plumbing
object, the Options filter-policy resolution, and
the controller's knob rules + two-window confirmation behaviour against a
stub engine.
"""

import pytest

from repro.lsm.compaction import CompactionStats
from repro.lsm.filters import MAX_BITS_PER_KEY, FilterAllocation
from repro.lsm.options import Options
from repro.obs.trace import Tracer
from repro.sim.clock import SimClock
from repro.tune import TuningConfig, TuningController, monkey_allocation
from repro.tune.controller import (
    BLOB_THRESHOLD_FLOOR,
    COMPACTION_READAHEAD_TARGET,
    MAX_PREFETCH_DEPTH,
    READAHEAD_LADDER,
    WRITE_SHARE_FLOOR,
    WindowStats,
)
from repro.util.bloom import BloomFilterPolicy


class StubDB:
    """Just enough engine surface for the controller: options, compaction
    stats, a level summary, and (optionally) a blob store marker."""

    def __init__(self, options=None, blob_store=None):
        self.options = options if options is not None else Options()
        self.compaction_stats = CompactionStats()
        self.blob_store = blob_store
        self.levels = []  # (level, files, bytes)

    def level_summary(self):
        return self.levels


def make_controller(config=None, options=None, blob_store=None, **kw):
    clock = SimClock()
    tracer = Tracer(clock)
    db = StubDB(options=options, blob_store=blob_store)
    controller = TuningController(
        db=db,
        tracer=tracer,
        clock=clock,
        config=config if config is not None else TuningConfig(interval_ops=10),
        **kw,
    )
    return controller, db


def stationary(**overrides):
    """A WindowStats with quiet defaults, overridable per test."""
    defaults = dict(
        ops=100,
        point_share=1.0,
        scan_share=0.0,
        write_share=0.0,
        prefetch_hits=0,
        prefetch_waste=0,
        cloud_ops=0,
        cloud_seconds=0.0,
        compactions=0,
        compaction_bytes_read=0,
        level_bytes=(0,),
        write_bytes=0,
        value_hist=(),
        scan_bytes=0,
    )
    defaults.update(overrides)
    return WindowStats(**defaults)


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

    def test_zero_point_share_is_flat(self):
        alloc = monkey_allocation(
            [1 << 20, 100 << 20],
            budget_bits_per_key=10,
            size_multiplier=10,
            point_read_share=0.0,
        )
        # Slope 0: every level gets the uniform budget.
        assert len(set(alloc.bits_per_level)) == 1

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


def point_read_window(controller):
    """Drive one full evaluation window of point reads; the filter rule
    only skews bits when the window actually contains point lookups
    (``point_read_share`` scales the Monkey slope)."""
    for _ in range(controller.config.interval_ops):
        controller.record_op("get")
    return controller.trajectory[-1]


class TestConfirmationRule:
    def test_change_needs_two_consecutive_windows(self):
        controller, db = make_controller()
        db.levels = [(0, 1, 1 << 20), (2, 4, 100 << 20)]
        first = point_read_window(controller)
        assert "filter_allocation" not in first.changed
        second = point_read_window(controller)
        assert "filter_allocation" in second.changed
        assert db.options.filter_allocation is not None

    def test_one_odd_window_never_moves_a_knob(self):
        controller, db = make_controller()
        db.levels = [(0, 1, 1 << 20), (2, 4, 100 << 20)]
        point_read_window(controller)  # pends the skewed allocation
        db.levels = []  # signal vanishes before confirmation
        point_read_window(controller)
        assert db.options.filter_allocation is None

    def test_stationary_stats_reach_a_fixed_point(self):
        controller, db = make_controller()
        db.levels = [(0, 1, 1 << 20), (1, 2, 10 << 20), (3, 9, 200 << 20)]
        decisions = [point_read_window(controller) for _ in range(10)]
        assert any(d.changed for d in decisions[:4])
        assert all(not d.changed for d in decisions[4:])


class TestKnobRules:
    def test_prefetch_off_below_scan_floor(self):
        controller, _ = make_controller()
        assert controller._prefetch_target(stationary(scan_share=0.01), 3) == 0

    def test_prefetch_stays_off_for_single_table_scans_on_warm_trees(self):
        # Scans that fit inside one table abandon most speculative opens;
        # on a warm tree (few cloud requests per op) that waste is pure
        # loss, so the depth drops to 0.
        controller, db = make_controller()
        short = stationary(
            scan_share=0.9, scan_bytes=90 * (db.options.target_file_size_base // 4)
        )
        assert controller._prefetch_target(short, 0) == 0
        assert controller._prefetch_target(short, 3) == 0

    def test_prefetch_engages_for_short_scans_when_opens_are_cloud_bound(self):
        # Same sub-table scans, but the window shows heavy cloud traffic:
        # a cold table open is then a chain of round trips, and the rare
        # next-table crossing pays for the abandoned opens.
        controller, db = make_controller()
        short_cold = stationary(
            scan_share=0.9,
            scan_bytes=90 * (db.options.target_file_size_base // 4),
            cloud_ops=500,
            cloud_seconds=5.0,
        )
        assert controller._prefetch_target(short_cold, 0) == 1

    def test_prefetch_walks_by_waste_ratio(self):
        controller, db = make_controller()
        # 90 scans each spanning several tables: prefetch can pay.
        scanning = dict(
            scan_share=0.9, scan_bytes=90 * 4 * db.options.target_file_size_base
        )
        assert controller._prefetch_target(stationary(**scanning), 0) == 1
        wasteful = stationary(prefetch_hits=1, prefetch_waste=9, **scanning)
        assert controller._prefetch_target(wasteful, 3) == 2
        clean = stationary(prefetch_hits=9, prefetch_waste=1, **scanning)
        assert controller._prefetch_target(clean, 3) == 4
        assert controller._prefetch_target(clean, MAX_PREFETCH_DEPTH) == MAX_PREFETCH_DEPTH

    def test_readahead_tracks_scan_footprint(self):
        controller, _ = make_controller()
        # No scan signal: hold the current setting rather than churn.
        assert controller._readahead_target(stationary(), 64 << 10) == 64 << 10
        # Tiny scans: every speculative byte beyond the result is waste.
        tiny = stationary(scan_share=0.9, scan_bytes=90 * 512)
        assert controller._readahead_target(tiny, 64 << 10) == 0
        # Short scans get a footprint-matched small rung, not all-or-nothing:
        # a ~5.5 KiB scan wants its blocks coalesced into one ~8 KiB read.
        short = stationary(scan_share=0.9, scan_bytes=90 * 5632)
        assert controller._readahead_target(short, 64 << 10) == 8 << 10
        # Long scans: the smallest rung covering the average footprint.
        long_scans = stationary(scan_share=0.9, scan_bytes=90 * (100 << 10))
        assert controller._readahead_target(long_scans, 0) == 128 << 10
        # An expensive cloud round trip rounds one rung up: fetch more
        # per request when each request costs a full RTT.
        slow = stationary(
            scan_share=0.9,
            scan_bytes=90 * (100 << 10),
            cloud_ops=10,
            cloud_seconds=1.0,
        )
        assert controller._readahead_target(slow, 0) == 256 << 10
        assert READAHEAD_LADDER[0] == 4 << 10  # bottom rung bounds the "tiny" cutoff

    def test_compaction_readahead_requires_writes_and_cloud(self):
        controller, _ = make_controller()
        target = COMPACTION_READAHEAD_TARGET
        busy = stationary(write_share=0.5, cloud_ops=5, level_bytes=(0, 1, 1))
        assert controller._compaction_readahead_target(busy, 0) == target
        read_only = stationary(write_share=0.0, cloud_ops=5)
        assert controller._compaction_readahead_target(read_only, 0) == 0
        local_only = stationary(write_share=0.5, cloud_ops=0)
        assert controller._compaction_readahead_target(local_only, 0) == 0

    def test_compaction_readahead_write_share_hysteresis(self):
        # Engage at the floor; once engaged, release only below floor/2.
        # A workload hovering right at the floor (a 5%-insert YCSB phase)
        # must not flip the knob on alternating windows.
        controller, _ = make_controller()
        target = COMPACTION_READAHEAD_TARGET
        floor = WRITE_SHARE_FLOOR
        at_floor = stationary(write_share=floor, cloud_ops=5, level_bytes=(0, 1, 1))
        just_below = stationary(
            write_share=floor * 0.8, cloud_ops=5, level_bytes=(0, 1, 1)
        )
        way_below = stationary(
            write_share=floor * 0.4, cloud_ops=5, level_bytes=(0, 1, 1)
        )
        assert controller._compaction_readahead_target(at_floor, 0) == target
        assert controller._compaction_readahead_target(just_below, 0) == 0
        assert controller._compaction_readahead_target(just_below, target) == target
        assert controller._compaction_readahead_target(way_below, target) == 0

    def test_compaction_readahead_uses_cloud_level_when_known(self):
        controller, _ = make_controller(cloud_level=2)
        shallow = stationary(write_share=0.5, level_bytes=(1, 1))
        deep = stationary(write_share=0.5, level_bytes=(1, 1, 1))
        assert controller._compaction_readahead_target(shallow, 0) == 0
        assert controller._compaction_readahead_target(deep, 0) > 0

    def test_subcompactions_track_compaction_width(self):
        controller, db = make_controller()
        db.options.target_file_size_base = 1 << 20
        wide = stationary(
            write_share=0.5, compactions=2, compaction_bytes_read=12 << 20
        )
        assert controller._subcompactions_target(wide, 1) == 6
        assert controller._subcompactions_target(stationary(), 3) == 3

    def test_blob_threshold_tracks_value_byte_mass(self):
        controller, _ = make_controller()
        # 90% of written bytes are 4 KiB values: divert at the 4 KiB bound.
        hist = ((256, 1000), (4096, 9000))
        stats = stationary(write_share=1.0, write_bytes=10_000, value_hist=hist)
        assert controller._blob_threshold_target(stats, 64 << 10) == 4096
        # Bytes dominated by small values: the floor keeps tiny values inline.
        small = stationary(
            write_share=1.0, write_bytes=10_000, value_hist=((64, 10_000),)
        )
        assert controller._blob_threshold_target(small, 4096) == BLOB_THRESHOLD_FLOOR


class TestControllerMechanics:
    def test_record_op_evaluates_on_interval_and_charges_cpu(self):
        controller, _ = make_controller(TuningConfig(interval_ops=5))
        for _ in range(4):
            controller.record_op("get")
        assert not controller.trajectory
        controller.record_op("get")
        assert len(controller.trajectory) == 1
        assert controller.tracer.totals.as_dict().get("cpu", 0.0) > 0
        assert controller.clock.now > 0

    def test_trajectory_digest_is_stable_and_input_sensitive(self):
        def run(kinds):
            controller, db = make_controller(TuningConfig(interval_ops=3))
            # A skewed tree: the filter rule's target depends on the
            # window's point-read share, so different mixes must leave
            # different trajectories.
            db.levels = [(0, 1, 1 << 20), (2, 4, 100 << 20)]
            for kind in kinds:
                controller.record_op(kind, 100)
            return controller.trajectory_digest()

        ops = ["put", "get", "scan"] * 4
        assert run(ops) == run(ops)
        assert run(ops) != run(["get"] * 12)

    def test_knobs_render(self):
        controller, _ = make_controller()
        knobs = controller.knobs()
        assert knobs["filter_allocation"].startswith("uniform:")
