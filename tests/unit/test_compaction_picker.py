"""Unit tests for compaction picking and scoring."""

import pytest

from repro.lsm.compaction import Compaction, CompactionPicker
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData, Version, VersionEdit
from repro.util.encoding import TYPE_VALUE, make_internal_key


def fmd(number, lo, hi, size=1000):
    return FileMetaData(
        number=number,
        file_size=size,
        smallest=make_internal_key(lo, 10, TYPE_VALUE),
        largest=make_internal_key(hi, 10, TYPE_VALUE),
    )


def version_with(*placements):
    """placements: (level, FileMetaData) pairs."""
    v = Version(7)
    edit = VersionEdit()
    for level, meta in placements:
        edit.add_file(level, meta)
    return v.apply(edit)


def options():
    return Options(
        level0_file_num_compaction_trigger=4,
        max_bytes_for_level_base=10_000,
    )


class TestScoring:
    def test_empty_version_scores_zero(self):
        picker = CompactionPicker(options())
        scores = picker.compute_scores(Version(7))
        assert all(score < 1.0 for score, _ in scores)

    def test_l0_count_score(self):
        picker = CompactionPicker(options())
        v = version_with(*[(0, fmd(i, b"a", b"z")) for i in range(1, 5)])
        scores = dict((lvl, s) for s, lvl in picker.compute_scores(v))
        assert scores[0] == pytest.approx(1.0)

    def test_level_byte_score(self):
        picker = CompactionPicker(options())
        v = version_with((1, fmd(1, b"a", b"m", size=20_000)))
        scores = dict((lvl, s) for s, lvl in picker.compute_scores(v))
        assert scores[1] == pytest.approx(2.0)

    def test_highest_score_first(self):
        picker = CompactionPicker(options())
        v = version_with(
            (1, fmd(1, b"a", b"m", size=15_000)),  # score 1.5
            *[(0, fmd(i, b"a", b"z")) for i in range(2, 10)],  # score 2.0
        )
        best_score, level = picker.compute_scores(v)[0]
        assert level == 0
        assert best_score == pytest.approx(2.0)


class TestPicking:
    def test_nothing_to_do(self):
        picker = CompactionPicker(options())
        v = version_with((0, fmd(1, b"a", b"z")))
        assert picker.pick(v) is None

    def test_l0_pick_takes_all_overlapping(self):
        picker = CompactionPicker(options())
        v = version_with(
            (0, fmd(1, b"a", b"f")),
            (0, fmd(2, b"e", b"k")),
            (0, fmd(3, b"j", b"p")),
            (0, fmd(4, b"o", b"z")),
            (1, fmd(5, b"a", b"m")),
        )
        compaction = picker.pick(v)
        assert compaction is not None
        assert compaction.level == 0
        assert {m.number for m in compaction.inputs} == {1, 2, 3, 4}
        assert {m.number for m in compaction.overlaps} == {5}

    def test_deep_level_pick_single_file_plus_overlaps(self):
        picker = CompactionPicker(options())
        v = version_with(
            (1, fmd(1, b"a", b"f", size=20_000)),
            (2, fmd(2, b"a", b"c")),
            (2, fmd(3, b"d", b"k")),
            (2, fmd(4, b"x", b"z")),
        )
        compaction = picker.pick(v)
        assert compaction.level == 1
        assert [m.number for m in compaction.inputs] == [1]
        assert {m.number for m in compaction.overlaps} == {2, 3}

    def test_cursor_rotates_through_level(self):
        picker = CompactionPicker(options())
        v = version_with(
            (1, fmd(1, b"a", b"f", size=12_000)),
            (1, fmd(2, b"g", b"p", size=12_000)),
        )
        first = picker.pick(v)
        second = picker.pick(v)
        assert first.inputs[0].number != second.inputs[0].number

    def test_cursor_wraps_around(self):
        picker = CompactionPicker(options())
        v = version_with((1, fmd(1, b"a", b"f", size=12_000)))
        a = picker.pick(v)
        b = picker.pick(v)  # cursor past end -> wraps to the same file
        assert a.inputs[0].number == b.inputs[0].number == 1

    def test_trivial_move_detection(self):
        c = Compaction(level=1, inputs=[fmd(1, b"a", b"f")], overlaps=[], score=1.5)
        assert c.is_trivial_move()
        c2 = Compaction(
            level=1, inputs=[fmd(1, b"a", b"f")], overlaps=[fmd(2, b"a", b"c")], score=1.5
        )
        assert not c2.is_trivial_move()
        assert c2.output_level == 2
