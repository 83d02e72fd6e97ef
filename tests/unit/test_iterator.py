"""Unit tests for the merge/visibility iterator machinery.

Every case runs in both scan directions: the inputs are written ascending,
and the reverse run feeds them reversed and expects the reversed answer.
"""

from repro.lsm.iterator import (
    clamp_to_range,
    merge_internal,
    visible_user_entries,
    visible_user_entries_reverse,
)
from repro.util.encoding import MAX_SEQUENCE, TYPE_DELETION, TYPE_VALUE, make_internal_key

DIRECTIONS = (False, True)


def ik(user_key: bytes, seq: int, vtype: int = TYPE_VALUE) -> bytes:
    return make_internal_key(user_key, seq, vtype)


def in_scan_order(entries, reverse):
    return entries[::-1] if reverse else entries


def merged(sources, reverse):
    return list(
        merge_internal(
            [iter(in_scan_order(source, reverse)) for source in sources],
            reverse=reverse,
        )
    )


def visible(entries, reverse, sequence=MAX_SEQUENCE):
    collapse = visible_user_entries_reverse if reverse else visible_user_entries
    return list(collapse(iter(in_scan_order(entries, reverse)), sequence))


class TestMergeInternal:
    def test_empty_sources(self):
        for reverse in DIRECTIONS:
            assert merged([], reverse) == []
            assert merged([[], []], reverse) == []

    def test_single_source_passthrough(self):
        entries = [(ik(b"a", 2), b"1"), (ik(b"b", 1), b"2")]
        for reverse in DIRECTIONS:
            assert merged([entries], reverse) == in_scan_order(entries, reverse)

    def test_interleaved_merge(self):
        s1 = [(ik(b"a", 1), b"a1"), (ik(b"c", 1), b"c1")]
        s2 = [(ik(b"b", 1), b"b1"), (ik(b"d", 1), b"d1")]
        expected = [b"a1", b"b1", b"c1", b"d1"]
        for reverse in DIRECTIONS:
            values = [e[1] for e in merged([s1, s2], reverse)]
            assert values == in_scan_order(expected, reverse)

    def test_same_user_key_newest_first(self):
        s1 = [(ik(b"k", 5), b"old")]
        s2 = [(ik(b"k", 9), b"new")]
        for reverse in DIRECTIONS:
            values = [e[1] for e in merged([s1, s2], reverse)]
            assert values == in_scan_order([b"new", b"old"], reverse)

    def test_many_sources(self):
        sources = [[(ik(bytes([97 + i]), 1), bytes([i]))] for i in range(20)]
        for reverse in DIRECTIONS:
            keys = [e[0] for e in merged(sources, reverse)]
            assert len(keys) == 20
            assert keys == sorted(keys, reverse=reverse)

    def test_pulls_lazily_and_only_from_the_source_just_yielded(self):
        # Block fetch order — and so the simulated clock, cloud request
        # counts and prefetch events — rides on the merge's pull order.
        runs = [
            [(ik(b"a", 1), b"0"), (ik(b"c", 1), b"0"), (ik(b"e", 1), b"0")],
            [(ik(b"b", 1), b"1"), (ik(b"d", 1), b"1")],
            [(ik(b"f", 1), b"2")],
        ]
        for reverse in DIRECTIONS:
            pulls = []

            def tracked(index, entries):
                for entry in in_scan_order(entries, reverse):
                    pulls.append(index)
                    yield entry

            stream = merge_internal(
                [tracked(i, run) for i, run in enumerate(runs)], reverse=reverse
            )
            assert pulls == []  # nothing before the first next
            previous = next(stream)
            assert pulls == [0, 1, 2]  # one entry per source seeds the merge
            left = [len(run) - 1 for run in runs]
            yielded = [previous]
            while True:
                seen = len(pulls)
                entry = next(stream, None)
                source = int(previous[1])  # each value names its source
                expected = [source] if left[source] else []
                left[source] -= len(expected)
                assert pulls[seen:] == expected, (reverse, yielded)
                if entry is None:
                    break
                yielded.append(entry)
                previous = entry
            assert yielded == sorted((e for run in runs for e in run), reverse=reverse)


class TestVisibility:
    def test_newest_wins(self):
        entries = [(ik(b"k", 9), b"new"), (ik(b"k", 5), b"old")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse) == [(b"k", b"new")]

    def test_tombstone_hides(self):
        entries = [(ik(b"k", 9, TYPE_DELETION), b""), (ik(b"k", 5), b"old")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse) == []

    def test_snapshot_skips_future(self):
        entries = [(ik(b"k", 9), b"future"), (ik(b"k", 5), b"past")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse, sequence=6) == [(b"k", b"past")]

    def test_snapshot_before_any_entry(self):
        entries = [(ik(b"k", 9), b"v")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse, sequence=3) == []

    def test_tombstone_then_older_put_at_snapshot(self):
        # Delete at seq 9, put at seq 5; snapshot at 7 sees the put.
        entries = [(ik(b"k", 9, TYPE_DELETION), b""), (ik(b"k", 5), b"v")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse, sequence=7) == [(b"k", b"v")]

    def test_multiple_keys(self):
        entries = [
            (ik(b"a", 3), b"a3"),
            (ik(b"a", 1), b"a1"),
            (ik(b"b", 2, TYPE_DELETION), b""),
            (ik(b"b", 1), b"b1"),
            (ik(b"c", 1), b"c1"),
        ]
        expected = [(b"a", b"a3"), (b"c", b"c1")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse) == in_scan_order(expected, reverse)


class TestClamp:
    ENTRIES = [(b"a", b"1"), (b"c", b"2"), (b"e", b"3"), (b"g", b"4")]

    def clamped_keys(self, reverse, **bounds):
        stream = iter(in_scan_order(self.ENTRIES, reverse))
        return [k for k, _ in clamp_to_range(stream, reverse=reverse, **bounds)]

    def test_no_bounds(self):
        for reverse in DIRECTIONS:
            assert len(self.clamped_keys(reverse)) == 4

    def test_begin_inclusive(self):
        for reverse in DIRECTIONS:
            got = self.clamped_keys(reverse, begin=b"c")
            assert got == in_scan_order([b"c", b"e", b"g"], reverse)

    def test_end_exclusive(self):
        for reverse in DIRECTIONS:
            got = self.clamped_keys(reverse, end=b"e")
            assert got == in_scan_order([b"a", b"c"], reverse)

    def test_both_bounds(self):
        for reverse in DIRECTIONS:
            got = self.clamped_keys(reverse, begin=b"b", end=b"g")
            assert got == in_scan_order([b"c", b"e"], reverse)

    def test_early_termination(self):
        # clamp must stop consuming once past the bound the scan runs into:
        # `end` going forward, `begin` going backward.
        for reverse in DIRECTIONS:
            consumed = []

            def source():
                for k in in_scan_order([b"a", b"b", b"c", b"d"], reverse):
                    consumed.append(k)
                    yield k, b"v"

            bounds = {"begin": b"c"} if reverse else {"end": b"b"}
            list(clamp_to_range(source(), reverse=reverse, **bounds))
            assert (b"a" if reverse else b"d") not in consumed
