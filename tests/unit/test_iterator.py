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
from repro.util.encoding import (
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    internal_order,
    make_internal_key,
)

DIRECTIONS = (False, True)


def ik(user_key: bytes, seq: int, vtype: int = TYPE_VALUE) -> tuple[bytes, int]:
    """The ``(user_key, neg_trailer)`` head of a decoded entry."""
    return user_key, -((seq << 8) | vtype)


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
        entries = [(*ik(b"a", 2), b"1"), (*ik(b"b", 1), b"2")]
        for reverse in DIRECTIONS:
            assert merged([entries], reverse) == in_scan_order(entries, reverse)

    def test_interleaved_merge(self):
        s1 = [(*ik(b"a", 1), b"a1"), (*ik(b"c", 1), b"c1")]
        s2 = [(*ik(b"b", 1), b"b1"), (*ik(b"d", 1), b"d1")]
        expected = [b"a1", b"b1", b"c1", b"d1"]
        for reverse in DIRECTIONS:
            values = [e[2] for e in merged([s1, s2], reverse)]
            assert values == in_scan_order(expected, reverse)

    def test_same_user_key_newest_first(self):
        s1 = [(*ik(b"k", 5), b"old")]
        s2 = [(*ik(b"k", 9), b"new")]
        for reverse in DIRECTIONS:
            values = [e[2] for e in merged([s1, s2], reverse)]
            assert values == in_scan_order([b"new", b"old"], reverse)

    def test_many_sources(self):
        sources = [[(*ik(bytes([97 + i]), 1), bytes([i]))] for i in range(20)]
        for reverse in DIRECTIONS:
            keys = [e[:2] for e in merged(sources, reverse)]
            assert len(keys) == 20
            assert keys == sorted(keys, reverse=reverse)

    def test_pulls_lazily_and_only_from_the_source_just_yielded(self):
        # Block fetch order — and so the simulated clock, cloud request
        # counts and prefetch events — rides on the merge's pull order.
        runs = [
            [(*ik(b"a", 1), b"0"), (*ik(b"c", 1), b"0"), (*ik(b"e", 1), b"0")],
            [(*ik(b"b", 1), b"1"), (*ik(b"d", 1), b"1")],
            [(*ik(b"f", 1), b"2")],
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
                source = int(previous[2])  # each value names its source
                expected = [source] if left[source] else []
                left[source] -= len(expected)
                assert pulls[seen:] == expected, (reverse, yielded)
                if entry is None:
                    break
                yielded.append(entry)
                previous = entry
            assert yielded == sorted((e for run in runs for e in run), reverse=reverse)

    def test_entries_sort_natively_like_their_internal_key_bytes(self):
        """No ``key=``: tuple order is internal-key order."""
        shapes = [
            (user_key, seq, vtype)
            for user_key in (b"", b"a", b"a\x00", b"ab", b"b")
            for seq in (0, 1, 255, 256, MAX_SEQUENCE)
            for vtype in (TYPE_DELETION, TYPE_VALUE)
        ]
        rows = [(*ik(*shape), b"v") for shape in shapes]
        by_bytes = sorted(shapes, key=lambda shape: internal_order(make_internal_key(*shape)))
        assert sorted(rows) == [(*ik(*shape), b"v") for shape in by_bytes]
        for reverse in DIRECTIONS:
            halves = [sorted(rows[0::2]), sorted(rows[1::2])]
            assert merged(halves, reverse) == sorted(rows, reverse=reverse)

    def test_one_internal_key_in_two_sources_comes_out_twice_earlier_source_first(self):
        """A WAL replayed over a memtable whose flush already committed leaves
        the same ``(user_key, sequence, type)``, with the same value, in the
        memtable and in an L0 table. Both copies come out, adjacent, the
        earlier source's first, in either direction; sources are told apart
        here by identity, the copies being equal."""
        copies = [(*ik(b"k", 7), bytes(bytearray(b"same"))) for _ in range(3)]
        assert copies[0] == copies[1] and copies[0][2] is not copies[1][2]
        sources = [
            [(*ik(b"a", 1), b"a"), copies[0], (*ik(b"z", 1), b"z")],
            [copies[1], (*ik(b"k", 3), b"older")],
            [(*ik(b"k", 9), b"newer"), copies[2]],
        ]
        for reverse in DIRECTIONS:
            out = merged(sources, reverse)
            assert len(out) == 7
            at = out.index(copies[0])
            assert [id(e[2]) for e in out[at : at + 3]] == [id(c[2]) for c in copies]
            assert out == sorted(out, reverse=reverse)
            # Visibility collapses the copies like any shadowed entry.
            assert visible(in_scan_order(out, reverse), reverse, sequence=8) == [
                (b"a", b"a"),
                (b"k", b"same"),
                (b"z", b"z"),
            ][:: -1 if reverse else 1]


class TestOneInternalKeyInTwoTables:
    def test_compaction_keeps_exactly_one_copy(self):
        """Both copies reach the merge with a snapshot older than them alive,
        so the shadowing rule keeps the first and would keep the second too;
        the builder must see the entry once (it used to refuse the repeat as
        out of order)."""
        from repro.lsm.compaction import Compaction
        from repro.lsm.db import DB
        from repro.lsm.options import Options
        from repro.sim.clock import SimClock
        from repro.storage.env import LocalEnv
        from repro.storage.local import LocalDevice

        options = Options(level0_file_num_compaction_trigger=100, block_cache_bytes=0)
        db = DB.open(LocalEnv(LocalDevice(SimClock())), "db/", options)
        before_everything = db.snapshot()
        db.put(b"a", b"1")
        db.put(b"k", b"same")
        db.flush()
        # The WAL replayed over the flushed memtable: sequence 2 again.
        db.memtable.add(2, TYPE_VALUE, b"k", b"same")
        db.put(b"z", b"3")
        db.flush()
        tables = list(db.versions.current.files[0])
        assert len(tables) == 2
        assert sum(e[:2] == ik(b"k", 2) for e in merge_internal(
            [db.table_cache.get_reader(meta.number).entries() for meta in tables]
        )) == 2

        db._run_compaction(Compaction(0, tables, [], 1.0))
        (output,) = db.versions.current.files[1]
        assert list(db.table_cache.get_reader(output.number).entries()) == [
            (*ik(b"a", 1), b"1"),
            (*ik(b"k", 2), b"same"),
            (*ik(b"z", 3), b"3"),
        ]
        assert db.compaction_stats.entries_dropped == 1
        assert list(db.scan()) == [(b"a", b"1"), (b"k", b"same"), (b"z", b"3")]
        assert list(db.scan(snapshot=before_everything)) == []
        db.close()


class TestVisibility:
    def test_newest_wins(self):
        entries = [(*ik(b"k", 9), b"new"), (*ik(b"k", 5), b"old")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse) == [(b"k", b"new")]

    def test_tombstone_hides(self):
        entries = [(*ik(b"k", 9, TYPE_DELETION), b""), (*ik(b"k", 5), b"old")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse) == []

    def test_snapshot_skips_future(self):
        entries = [(*ik(b"k", 9), b"future"), (*ik(b"k", 5), b"past")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse, sequence=6) == [(b"k", b"past")]

    def test_snapshot_before_any_entry(self):
        entries = [(*ik(b"k", 9), b"v")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse, sequence=3) == []

    def test_tombstone_then_older_put_at_snapshot(self):
        # Delete at seq 9, put at seq 5; snapshot at 7 sees the put.
        entries = [(*ik(b"k", 9, TYPE_DELETION), b""), (*ik(b"k", 5), b"v")]
        for reverse in DIRECTIONS:
            assert visible(entries, reverse, sequence=7) == [(b"k", b"v")]

    def test_multiple_keys(self):
        entries = [
            (*ik(b"a", 3), b"a3"),
            (*ik(b"a", 1), b"a1"),
            (*ik(b"b", 2, TYPE_DELETION), b""),
            (*ik(b"b", 1), b"b1"),
            (*ik(b"c", 1), b"c1"),
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
