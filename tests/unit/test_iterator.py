"""Unit tests for the merges and the scan's row loop."""

import heapq
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.block import Block
from repro.lsm.block_cache import BlockStack
from repro.lsm.db import DB
from repro.lsm.iterator import merge_internal, merge_runs
from repro.lsm.options import Options
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
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
    """The run merge of ``sources`` (one sorted list each, cut into lists of
    two), flattened — and checked against ``merge_internal``."""
    lists = [[source[at : at + 2] for at in range(0, len(source), 2)] for source in sources]
    flat = list(chain.from_iterable(merge_runs(lists)))
    assert flat == list(merge_internal([iter(source) for source in sources]))
    return flat


def traced_merges(sources):
    """Both merges over ``sources`` (per source, its sorted lists), each with
    the log of when it pulled a source's lists: ``(source, list index,
    entries out so far)`` for every list a source started. Returns
    ``(heapq.merge's output, its log, the runs' flattened output, their log)``."""

    def run(merge, flat_sources, count):
        log, out = [], []

        def source(index, lists):
            for number, rows in enumerate(lists):
                log.append((index, number, len(out)))
                yield from (rows if flat_sources else [rows])

        for item in merge([source(i, lists) for i, lists in enumerate(sources)]):
            out.extend(count(item))
        return out, log

    oracle, oracle_log = run(lambda s: heapq.merge(*s), True, lambda entry: [entry])
    runs, runs_log = run(merge_runs, False, lambda rows: rows)
    return oracle, oracle_log, runs, runs_log


# Small domains: the same internal key in several sources, equal entries.
entries = st.tuples(
    st.sampled_from([b"a", b"b", b"c"]),
    st.integers(0, 3),
    st.sampled_from([TYPE_VALUE, TYPE_DELETION]),
    st.sampled_from([b"", b"x"]),
).map(lambda e: (*ik(e[0], e[1], e[2]), e[3]))


@st.composite
def list_sources(draw):
    """Up to five sources, each a sorted entry list cut at random points
    into lists (empty ones included)."""
    sources = []
    for rows in draw(st.lists(st.lists(entries, max_size=12), max_size=5)):
        rows.sort()
        cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=5)))
        bounds = [0, *cuts, len(rows)]
        sources.append([rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    return sources


class TestMergeRuns:
    @given(list_sources())
    @settings(max_examples=300, deadline=None)
    def test_runs_are_heapq_merge_and_pull_each_list_when_it_would(self, sources):
        oracle, oracle_log, runs, runs_log = traced_merges(sources)
        # The same entries in the same order — ties included: equal entries
        # are told apart by identity, the earlier source's first.
        assert [id(entry) for entry in runs] == [id(entry) for entry in oracle]
        # Each list pulled at the point of the output where heapq.merge
        # pulls the list's first entry.
        assert runs_log == oracle_log

    def test_a_run_stops_before_the_next_head(self):
        a, b, c, d = ((*ik(key, 1), b"") for key in (b"a", b"b", b"c", b"d"))
        runs = list(merge_runs([[[a, b, d]], [[c]]]))
        assert runs == [[a, b], [c], [d]]


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
        # counts and prefetch events — rides on the merge's pull order: a
        # source's next list is pulled only at the pull after its current
        # list's last entry went out. Each value names its source.
        a0, c0, e0 = ((*ik(key, 1), b"0") for key in (b"a", b"c", b"e"))
        b1, d1 = ((*ik(key, 1), b"1") for key in (b"b", b"d"))
        f2 = (*ik(b"f", 1), b"2")
        sources = [[[a0, c0], [e0]], [[b1], [d1]], [[f2]]]
        pulls = []

        def tracked(index, lists):
            for rows in lists:
                pulls.append(index)
                yield rows

        stream = merge_runs([tracked(i, lists) for i, lists in enumerate(sources)])
        assert pulls == []  # nothing before the first next
        steps = [
            ([a0], [0, 1, 2]),  # one list per source seeds the merge
            ([b1], []),  # source 0's list still holds c: nothing pulled
            ([c0], [1]),  # source 1's list went out with b
            ([d1], [0]),
            ([e0], []),  # source 1 had no list left
            ([f2], []),
            (None, []),
        ]
        for run, new_pulls in steps:
            seen = len(pulls)
            assert next(stream, None) == run
            assert pulls[seen:] == new_pulls, run

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


class TestOneInternalKeyInTwoTables:
    def test_compaction_keeps_exactly_one_copy(self):
        """Both copies reach the merge with a snapshot older than them alive,
        so the shadowing rule keeps the first and would keep the second too;
        the builder must see the entry once (it used to refuse the repeat as
        out of order)."""
        from repro.lsm.compaction import Compaction

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
        readers = [db.table_cache.get_reader(meta.number) for meta in tables]
        assert sum(e[:2] == ik(b"k", 2) for e in merge_internal(
            [chain.from_iterable(reader.block_lists()) for reader in readers]
        )) == 2
        assert sum(e[:2] == ik(b"k", 2) for e in chain.from_iterable(
            merge_runs([reader.block_lists() for reader in readers])
        )) == 2
        # The scan's row loop collapses the copies like any shadowed entry.
        assert list(db.scan()) == [(b"a", b"1"), (b"k", b"same"), (b"z", b"3")]

        db._run_compaction(Compaction(0, tables, [], 1.0))
        (output,) = db.versions.current.files[1]
        assert list(chain.from_iterable(db.table_cache.get_reader(output.number).block_lists())) == [
            (*ik(b"a", 1), b"1"),
            (*ik(b"k", 2), b"same"),
            (*ik(b"z", 3), b"3"),
        ]
        assert db.compaction_stats.entries_dropped == 1
        assert list(db.scan()) == [(b"a", b"1"), (b"k", b"same"), (b"z", b"3")]
        assert list(db.scan(snapshot=before_everything)) == []
        db.close()


def layouts(writes, *, snapshot_after=None, fetched=None):
    """The DB ``writes`` build, ``(user_key, value)`` in order (``None``
    deletes), in each layout: every write in the memtable, and the writes
    split across two L0 tables — the older half, then the newer. Yields
    ``(db, snapshot)``, the snapshot taken after ``snapshot_after`` writes
    (None: no snapshot). ``fetched`` collects the first user key of every
    data block the tables fetch (no DRAM cache: every read fetches)."""

    class Recording(BlockStack):
        def fetch(self, handle):
            payload = super().fetch(handle)
            if fetched is not None:
                fetched.append(Block(payload).head()[0])
            return payload

    options = Options(level0_file_num_compaction_trigger=100, block_cache_bytes=0, block_size=64)
    for split in (None, (len(writes) + 1) // 2):
        db = DB.open(LocalEnv(LocalDevice(SimClock())), "db/", options, stack_factory=Recording)
        snapshot = None
        for done, (user_key, value) in enumerate(writes):
            if done == snapshot_after:
                snapshot = db.snapshot()
            if done == split:
                db.flush()
            if value is None:
                db.delete(user_key)
            else:
                db.put(user_key, value)
        if snapshot_after == len(writes):
            snapshot = db.snapshot()
        if split is not None:
            db.flush()
            assert len(db.versions.current.files[0]) == 2 and not len(db.memtable)
        yield db, snapshot
        db.close()


def scanned(writes, *, snapshot_after=None, **bounds):
    """``DB.scan``'s rows in each layout of :func:`layouts`."""
    return [
        list(db.scan(snapshot=snapshot, **bounds))
        for db, snapshot in layouts(writes, snapshot_after=snapshot_after)
    ]


class TestVisibility:
    def test_newest_wins(self):
        writes = [(b"k", b"old"), (b"k", b"new")]
        assert scanned(writes) == [[(b"k", b"new")]] * 2

    def test_tombstone_hides(self):
        writes = [(b"k", b"old"), (b"k", None)]
        assert scanned(writes) == [[]] * 2

    def test_snapshot_skips_future(self):
        writes = [(b"k", b"past"), (b"k", b"future")]
        assert scanned(writes, snapshot_after=1) == [[(b"k", b"past")]] * 2

    def test_snapshot_before_any_entry(self):
        writes = [(b"k", b"v"), (b"k", b"w")]
        assert scanned(writes, snapshot_after=0) == [[]] * 2

    def test_tombstone_then_older_put_at_snapshot(self):
        # A put, then a delete; a snapshot between them sees the put.
        writes = [(b"k", b"v"), (b"k", None)]
        assert scanned(writes, snapshot_after=1) == [[(b"k", b"v")]] * 2

    def test_multiple_keys(self):
        writes = [(b"a", b"a1"), (b"b", b"b1"), (b"c", b"c1"), (b"a", b"a3"), (b"b", None)]
        assert scanned(writes) == [[(b"a", b"a3"), (b"c", b"c1")]] * 2


class TestClamp:
    WRITES = [(b"a", b"1"), (b"c", b"2"), (b"e", b"3"), (b"g", b"4")]

    def clamped_keys(self, **bounds):
        (memtable, tables) = scanned(self.WRITES, **bounds)
        assert memtable == tables
        return [k for k, _ in memtable]

    def test_no_bounds(self):
        assert len(self.clamped_keys()) == 4

    def test_begin_inclusive(self):
        assert self.clamped_keys(begin=b"c") == [b"c", b"e", b"g"]

    def test_end_exclusive(self):
        assert self.clamped_keys(end=b"e") == [b"a", b"c"]

    def test_both_bounds(self):
        assert self.clamped_keys(begin=b"b", end=b"g") == [b"c", b"e"]

    def test_early_termination(self):
        # The scan must stop reading once past `end`: one block per key (the
        # values fill a block), and no block past the first visible key at
        # or after `end` is read.
        writes = [(key, key * 64) for key in (b"a", b"b", b"c", b"d", b"e", b"f", b"g", b"h")]
        fetched = []
        for db, _ in layouts(writes, fetched=fetched):
            del fetched[:]
            assert list(db.scan(limit=0)) == [] and fetched == []  # a zero limit reads nothing
            assert [k for k, _ in db.scan(end=b"f")] == [b"a", b"b", b"c", b"d", b"e"]
            assert b"g" not in fetched and b"h" not in fetched
        assert sorted(fetched) == [b"a", b"b", b"c", b"d", b"e", b"f"]  # the tables read block by block
