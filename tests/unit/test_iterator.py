"""Unit tests for the merge/visibility iterator machinery."""

from repro.lsm.iterator import clamp_to_range, merge_internal, visible_user_entries
from repro.util.encoding import (
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    internal_order,
    make_internal_key,
)


def ik(user_key: bytes, seq: int, vtype: int = TYPE_VALUE) -> tuple[bytes, int]:
    """The ``(user_key, neg_trailer)`` head of a decoded entry."""
    return user_key, -((seq << 8) | vtype)


def merged(sources):
    return list(merge_internal([iter(source) for source in sources]))


def visible(entries, sequence=MAX_SEQUENCE):
    return list(visible_user_entries(iter(entries), sequence))


class TestMergeInternal:
    def test_empty_sources(self):
        assert merged([]) == []
        assert merged([[], []]) == []

    def test_single_source_passthrough(self):
        entries = [(*ik(b"a", 2), b"1"), (*ik(b"b", 1), b"2")]
        assert merged([entries]) == entries

    def test_interleaved_merge(self):
        s1 = [(*ik(b"a", 1), b"a1"), (*ik(b"c", 1), b"c1")]
        s2 = [(*ik(b"b", 1), b"b1"), (*ik(b"d", 1), b"d1")]
        assert [e[2] for e in merged([s1, s2])] == [b"a1", b"b1", b"c1", b"d1"]

    def test_same_user_key_newest_first(self):
        s1 = [(*ik(b"k", 5), b"old")]
        s2 = [(*ik(b"k", 9), b"new")]
        assert [e[2] for e in merged([s1, s2])] == [b"new", b"old"]

    def test_many_sources(self):
        sources = [[(*ik(bytes([97 + i]), 1), bytes([i]))] for i in range(20)]
        keys = [e[:2] for e in merged(sources)]
        assert len(keys) == 20
        assert keys == sorted(keys)

    def test_pulls_lazily_and_only_from_the_source_just_yielded(self):
        # Block fetch order — and so the simulated clock, cloud request
        # counts and prefetch events — rides on the merge's pull order.
        runs = [
            [(*ik(b"a", 1), b"0"), (*ik(b"c", 1), b"0"), (*ik(b"e", 1), b"0")],
            [(*ik(b"b", 1), b"1"), (*ik(b"d", 1), b"1")],
            [(*ik(b"f", 1), b"2")],
        ]
        pulls = []

        def tracked(index, entries):
            for entry in entries:
                pulls.append(index)
                yield entry

        stream = merge_internal([tracked(i, run) for i, run in enumerate(runs)])
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
            assert pulls[seen:] == expected, yielded
            if entry is None:
                break
            yielded.append(entry)
            previous = entry
        assert yielded == sorted(e for run in runs for e in run)

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
        halves = [sorted(rows[0::2]), sorted(rows[1::2])]
        assert merged(halves) == sorted(rows)

    def test_one_internal_key_in_two_sources_comes_out_twice_earlier_source_first(self):
        """A WAL replayed over a memtable whose flush already committed leaves
        the same ``(user_key, sequence, type)``, with the same value, in the
        memtable and in an L0 table. Both copies come out, adjacent, the
        earlier source's first; sources are told apart here by identity,
        the copies being equal."""
        copies = [(*ik(b"k", 7), bytes(bytearray(b"same"))) for _ in range(3)]
        assert copies[0] == copies[1] and copies[0][2] is not copies[1][2]
        sources = [
            [(*ik(b"a", 1), b"a"), copies[0], (*ik(b"z", 1), b"z")],
            [copies[1], (*ik(b"k", 3), b"older")],
            [(*ik(b"k", 9), b"newer"), copies[2]],
        ]
        out = merged(sources)
        assert len(out) == 7
        at = out.index(copies[0])
        assert [id(e[2]) for e in out[at : at + 3]] == [id(c[2]) for c in copies]
        assert out == sorted(out)
        # Visibility collapses the copies like any shadowed entry.
        assert visible(out, sequence=8) == [(b"a", b"a"), (b"k", b"same"), (b"z", b"z")]


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
        assert visible(entries) == [(b"k", b"new")]

    def test_tombstone_hides(self):
        entries = [(*ik(b"k", 9, TYPE_DELETION), b""), (*ik(b"k", 5), b"old")]
        assert visible(entries) == []

    def test_snapshot_skips_future(self):
        entries = [(*ik(b"k", 9), b"future"), (*ik(b"k", 5), b"past")]
        assert visible(entries, sequence=6) == [(b"k", b"past")]

    def test_snapshot_before_any_entry(self):
        entries = [(*ik(b"k", 9), b"v")]
        assert visible(entries, sequence=3) == []

    def test_tombstone_then_older_put_at_snapshot(self):
        # Delete at seq 9, put at seq 5; snapshot at 7 sees the put.
        entries = [(*ik(b"k", 9, TYPE_DELETION), b""), (*ik(b"k", 5), b"v")]
        assert visible(entries, sequence=7) == [(b"k", b"v")]

    def test_multiple_keys(self):
        entries = [
            (*ik(b"a", 3), b"a3"),
            (*ik(b"a", 1), b"a1"),
            (*ik(b"b", 2, TYPE_DELETION), b""),
            (*ik(b"b", 1), b"b1"),
            (*ik(b"c", 1), b"c1"),
        ]
        assert visible(entries) == [(b"a", b"a3"), (b"c", b"c1")]


class TestClamp:
    ENTRIES = [(b"a", b"1"), (b"c", b"2"), (b"e", b"3"), (b"g", b"4")]

    def clamped_keys(self, **bounds):
        return [k for k, _ in clamp_to_range(iter(self.ENTRIES), **bounds)]

    def test_no_bounds(self):
        assert len(self.clamped_keys()) == 4

    def test_begin_inclusive(self):
        assert self.clamped_keys(begin=b"c") == [b"c", b"e", b"g"]

    def test_end_exclusive(self):
        assert self.clamped_keys(end=b"e") == [b"a", b"c"]

    def test_both_bounds(self):
        assert self.clamped_keys(begin=b"b", end=b"g") == [b"c", b"e"]

    def test_early_termination(self):
        # clamp must stop consuming once past `end`.
        consumed = []

        def source():
            for k in [b"a", b"b", b"c", b"d"]:
                consumed.append(k)
                yield k, b"v"

        list(clamp_to_range(source(), end=b"b"))
        assert b"d" not in consumed
