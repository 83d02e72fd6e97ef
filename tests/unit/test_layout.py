"""Unit tests for compaction-aware layouts (heat tracking + inheritance)."""

import pytest

from repro.lsm.compaction import CompactionEvent, CompactionOutput
from repro.lsm.format import BlockHandle
from repro.lsm.table_builder import BlockMeta, TableProperties
from repro.lsm.version import FileMetaData
from repro.mash.layout import BlockHeatTracker, LayoutConfig
from repro.util.encoding import TYPE_VALUE, make_internal_key


def ikey(user_key: bytes, seq: int = 10) -> bytes:
    return make_internal_key(user_key, seq, TYPE_VALUE)


def block(first: bytes, last: bytes, offset: int, size: int = 100) -> BlockMeta:
    return BlockMeta(ikey(first), ikey(last), BlockHandle(offset, size))


def fmd(number: int, lo: bytes, hi: bytes) -> FileMetaData:
    return FileMetaData(number, 1000, ikey(lo), ikey(hi))


def compaction_event(input_metas, outputs):
    return CompactionEvent(
        level=1,
        output_level=2,
        input_files=input_metas,
        outputs=outputs,
        dropped_entries=0,
    )


def output_of(number: int, blocks: list[BlockMeta]) -> CompactionOutput:
    props = TableProperties(blocks=blocks)
    meta = fmd(number, b"", b"")
    return CompactionOutput(meta, props)


NAME_OF = lambda number: f"db/{number:06d}.sst"


class TestHeatTracking:
    def test_record_and_query(self):
        tracker = BlockHeatTracker()
        tracker.record_access("f.sst", 0)
        tracker.record_access("f.sst", 0, weight=2.5)
        assert tracker.heat_of("f.sst", 0) == pytest.approx(3.5)
        assert tracker.heat_of("f.sst", 100) == 0.0

    def test_register_and_forget(self):
        tracker = BlockHeatTracker()
        tracker.register_file("f.sst", [block(b"a", b"m", 0)])
        assert tracker.knows_file("f.sst")
        tracker.record_access("f.sst", 0)
        tracker.forget_file("f.sst")
        assert not tracker.knows_file("f.sst")
        assert tracker.heat_of("f.sst", 0) == 0.0


    def test_file_heat_sums_one_file(self):
        tracker = BlockHeatTracker()
        tracker.record_access("f.sst", 0, weight=1.5)
        tracker.record_access("f.sst", 200)
        tracker.record_access("g.sst", 0, weight=7)
        assert tracker.file_heat("f.sst") == 2.5
        tracker.forget_file("f.sst")
        assert tracker.file_heat("f.sst") == 0.0
        assert tracker.file_heat("g.sst") == 7.0

    def test_file_heat_of_unknown_or_cold_file_is_float_zero(self):
        # maybe_promote compares this with float thresholds and sorts on it.
        tracker = BlockHeatTracker()
        tracker.register_file("cold.sst", [block(b"a", b"m", 0)])
        for name in ("cold.sst", "never-seen.sst"):
            heat = tracker.file_heat(name)
            assert heat == 0.0 and isinstance(heat, float)


class TestUnregisteredFileHeat:
    """The loader records heat for any table it reads, including tables
    opened after a reopen whose layout the tracker was never given."""

    def _tracker(self):
        tracker = BlockHeatTracker(LayoutConfig(prewarm_heat_threshold=0.1))
        for _ in range(10):
            tracker.record_access(NAME_OF(1), 0)
        return tracker

    def test_kept_and_counted(self):
        tracker = self._tracker()
        assert not tracker.knows_file(NAME_OF(1))
        assert tracker.heat_of(NAME_OF(1), 0) == 10.0
        assert tracker.file_heat(NAME_OF(1)) == 10.0

    def test_ignored_by_inheritance(self):
        tracker = self._tracker()
        out = [block(b"a", b"f", 0)]
        tracker.register_file(NAME_OF(9), out)
        event = compaction_event([fmd(1, b"a", b"f")], [output_of(9, out)])
        assert tracker.plan_inheritance(event, NAME_OF) == []
        assert tracker.heat_of(NAME_OF(9), 0) == 0.0

    def test_survives_late_registration(self):
        tracker = self._tracker()
        tracker.register_file(NAME_OF(1), [block(b"a", b"f", 0)])
        out = [block(b"a", b"f", 0)]
        tracker.register_file(NAME_OF(9), out)
        event = compaction_event([fmd(1, b"a", b"f")], [output_of(9, out)])
        assert [h for _, _, h in tracker.plan_inheritance(event, NAME_OF)] == [5.0]

    def test_dropped_by_forget(self):
        tracker = self._tracker()
        tracker.forget_file(NAME_OF(1))
        assert tracker.heat_of(NAME_OF(1), 0) == 0.0
        assert tracker.file_heat(NAME_OF(1)) == 0.0


class TestInheritance:
    def _tracker_with_hot_input(self, config=None):
        tracker = BlockHeatTracker(config or LayoutConfig(prewarm_heat_threshold=1.0))
        # Input file #1: two blocks, the [a..f] block is hot.
        tracker.register_file(NAME_OF(1), [block(b"a", b"f", 0), block(b"g", b"p", 200)])
        for _ in range(10):
            tracker.record_access(NAME_OF(1), 0)
        return tracker

    def test_overlapping_output_inherits(self):
        tracker = self._tracker_with_hot_input()
        out_blocks = [block(b"a", b"c", 0), block(b"d", b"h", 200), block(b"x", b"z", 400)]
        tracker.register_file(NAME_OF(9), out_blocks)
        event = compaction_event([fmd(1, b"a", b"p")], [output_of(9, out_blocks)])
        plan = tracker.plan_inheritance(event, NAME_OF)
        planned_offsets = {b.handle.offset for _, b, _ in plan}
        assert 0 in planned_offsets  # [a..c] overlaps hot [a..f]
        assert 200 in planned_offsets  # [d..h] overlaps hot [a..f]
        assert 400 not in planned_offsets  # [x..z] does not

    def test_cold_inputs_produce_empty_plan(self):
        tracker = BlockHeatTracker(LayoutConfig(prewarm_heat_threshold=1.0))
        tracker.register_file(NAME_OF(1), [block(b"a", b"f", 0)])
        out = [block(b"a", b"f", 0)]
        tracker.register_file(NAME_OF(9), out)
        event = compaction_event([fmd(1, b"a", b"f")], [output_of(9, out)])
        assert tracker.plan_inheritance(event, NAME_OF) == []

    def test_naive_mode_never_plans(self):
        tracker = self._tracker_with_hot_input(LayoutConfig(aware=False))
        out = [block(b"a", b"f", 0)]
        tracker.register_file(NAME_OF(9), out)
        event = compaction_event([fmd(1, b"a", b"p")], [output_of(9, out)])
        assert tracker.plan_inheritance(event, NAME_OF) == []

    def test_trivial_move_never_plans(self):
        tracker = self._tracker_with_hot_input()
        event = CompactionEvent(
            level=1, output_level=2, input_files=[fmd(1, b"a", b"p")], outputs=[],
            dropped_entries=0, trivial_move=True,
        )
        assert tracker.plan_inheritance(event, NAME_OF) == []

    def test_threshold_filters(self):
        config = LayoutConfig(prewarm_heat_threshold=100.0)
        tracker = self._tracker_with_hot_input(config)  # heat 10 < 100
        out = [block(b"a", b"f", 0)]
        tracker.register_file(NAME_OF(9), out)
        event = compaction_event([fmd(1, b"a", b"p")], [output_of(9, out)])
        assert tracker.plan_inheritance(event, NAME_OF) == []

    def test_budget_caps_plan(self, monkeypatch):
        monkeypatch.setattr("repro.mash.layout.PREWARM_BUDGET_BLOCKS", 2)
        config = LayoutConfig(prewarm_heat_threshold=0.1)
        tracker = BlockHeatTracker(config)
        in_blocks = [block(bytes([c]), bytes([c]), c * 100) for c in range(97, 107)]
        tracker.register_file(NAME_OF(1), in_blocks)
        for b in in_blocks:
            tracker.record_access(NAME_OF(1), b.handle.offset, weight=5)
        out_blocks = [block(bytes([c]), bytes([c]), c * 100) for c in range(97, 107)]
        tracker.register_file(NAME_OF(9), out_blocks)
        event = compaction_event([fmd(1, b"a", b"z")], [output_of(9, out_blocks)])
        plan = tracker.plan_inheritance(event, NAME_OF)
        assert len(plan) == 2

    def test_hottest_first(self):
        config = LayoutConfig(prewarm_heat_threshold=0.1)
        tracker = BlockHeatTracker(config)
        in_blocks = [block(b"a", b"b", 0), block(b"c", b"d", 100)]
        tracker.register_file(NAME_OF(1), in_blocks)
        tracker.record_access(NAME_OF(1), 0, weight=1)
        tracker.record_access(NAME_OF(1), 100, weight=50)
        out_blocks = [block(b"a", b"b", 0), block(b"c", b"d", 100)]
        tracker.register_file(NAME_OF(9), out_blocks)
        event = compaction_event([fmd(1, b"a", b"d")], [output_of(9, out_blocks)])
        plan = tracker.plan_inheritance(event, NAME_OF)
        assert plan[0][1].handle.offset == 100  # hottest first

    def test_inherited_heat_seeds_future_rounds(self):
        tracker = self._tracker_with_hot_input()
        out = [block(b"a", b"f", 0)]
        tracker.register_file(NAME_OF(9), out)
        event = compaction_event([fmd(1, b"a", b"p")], [output_of(9, out)])
        tracker.plan_inheritance(event, NAME_OF)
        assert tracker.heat_of(NAME_OF(9), 0) > 0

    def test_user_key_spanning_block_boundaries(self):
        """Versions of one user key may end one block and start the next, in
        inputs and outputs alike; touching at a single key is an overlap."""
        tracker = BlockHeatTracker(LayoutConfig(prewarm_heat_threshold=0.1))
        tracker.register_file(NAME_OF(1), [block(b"k1", b"k5", 0), block(b"k5", b"k9", 200)])
        tracker.record_access(NAME_OF(1), 0, weight=12)
        tracker.record_access(NAME_OF(1), 200, weight=6)
        out = [
            block(b"k0", b"k5", 0),
            block(b"k5", b"k5", 200),
            block(b"k5", b"k7", 400),
            block(b"k8", b"k8", 600),
        ]
        tracker.register_file(NAME_OF(9), out)
        event = compaction_event([fmd(1, b"k1", b"k9")], [output_of(9, out)])
        plan = tracker.plan_inheritance(event, NAME_OF)
        # [k1..k5] splits 12 * 0.5 over three blocks, [k5..k9] 6 * 0.5 over four.
        assert {b.handle.offset: h for _, b, h in plan} == {
            0: 2.75, 200: 2.75, 400: 2.75, 600: 0.75,
        }  # fmt: skip

    def test_hot_block_in_a_gap_between_output_blocks(self):
        tracker = BlockHeatTracker(LayoutConfig(prewarm_heat_threshold=0.1))
        tracker.register_file(NAME_OF(1), [block(b"d", b"f", 0)])
        tracker.record_access(NAME_OF(1), 0, weight=10)
        out = [block(b"a", b"c", 0), block(b"g", b"k", 200)]  # d..f was dropped
        tracker.register_file(NAME_OF(9), out)
        event = compaction_event([fmd(1, b"d", b"f")], [output_of(9, out)])
        assert tracker.plan_inheritance(event, NAME_OF) == []
        assert tracker.file_heat(NAME_OF(9)) == 0.0

    def test_unregistered_files_skipped_gracefully(self):
        tracker = BlockHeatTracker()
        event = compaction_event([fmd(1, b"a", b"p")], [output_of(9, [])])
        assert tracker.plan_inheritance(event, NAME_OF) == []
