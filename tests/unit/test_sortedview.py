"""Unit and property tests for the REMIX-style global sorted view.

The view is a pure in-memory structure with an explicit block source, so
everything here runs against fabricated runs: entries are chunked into real
``BlockBuilder`` payloads served from a dict, no Env or tables involved.
The reference model is the brute-force merge of every run's entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.sortedview import (
    BlockRef,
    TableRun,
    rebuild_view,
    user_key_anchor,
)
from repro.util.encoding import (
    MAX_SEQUENCE,
    TYPE_VALUE,
    extract_user_key,
    internal_order,
    make_internal_key,
    seek_goal,
)

user_keys = st.binary(min_size=1, max_size=6)


def build_runs(key_sets, entries_per_block=3):
    """Fabricate L0 runs + a block source from per-run user-key sets.

    Run ``i`` (1-based numbers) writes every key of ``key_sets[i-1]`` at
    sequence ``i`` — later runs are newer, the L0 invariant. Internal keys
    are globally unique.
    """
    payloads = {}
    tables = {}
    for idx, key_set in enumerate(key_sets):
        number = idx + 1
        entries = sorted(
            (
                (make_internal_key(k, number, TYPE_VALUE), b"v%d:%s" % (number, k))
                for k in key_set
            ),
            key=lambda e: internal_order(e[0]),
        )
        if not entries:
            continue
        refs = []
        offset = 0
        for lo in range(0, len(entries), entries_per_block):
            chunk = entries[lo : lo + entries_per_block]
            builder = BlockBuilder(4)
            for k, v in chunk:
                builder.add(k, v)
            payload = builder.finish()
            payloads[(number, offset)] = payload
            refs.append(BlockRef(chunk[-1][0], offset, len(payload)))
            offset += len(payload) + 5
        tables[number] = TableRun(
            number, 0, entries[0][0], entries[-1][0], tuple(refs)
        )

    def source(number, ref):
        return Block(payloads[(number, ref.offset)])

    merged = sorted(
        (k, -(((i + 1) << 8) | TYPE_VALUE), b"v%d:%s" % (i + 1, k))
        for i, key_set in enumerate(key_sets)
        for k in key_set
    )
    return tables, source, merged


run_sets = st.lists(
    st.sets(user_keys, min_size=0, max_size=25), min_size=1, max_size=5
)


class TestStreamEquivalence:
    @given(run_sets, st.one_of(st.none(), user_keys))
    @settings(max_examples=120, deadline=None)
    def test_stream_matches_brute_force_merge(self, key_sets, seek_user):
        tables, source, merged = build_runs(key_sets)
        view, _ = rebuild_view(None, tables)
        target = seek_goal(seek_user) if seek_user is not None else None
        expected = [e for e in merged if target is None or e >= target]
        assert list(view.stream(target, source)) == expected

    @given(run_sets, st.one_of(st.none(), user_keys))
    @settings(max_examples=120, deadline=None)
    def test_stream_reverse_matches_brute_force_merge(self, key_sets, bound_user):
        tables, source, merged = build_runs(key_sets)
        view, _ = rebuild_view(None, tables)
        bound = seek_goal(bound_user) if bound_user is not None else None
        expected = [e for e in reversed(merged) if bound is None or e < bound]
        assert list(view.stream_reverse(bound, source)) == expected

    @given(run_sets, user_keys, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_prefetch_plan_covers_every_touched_run(self, key_sets, key, reverse):
        """The plan names the exact block each run is entered at: every run
        the stream touches is planned, in first-touched order. (A reverse
        plan covers the bound's segment only, so there the planned runs
        are the *first* ones touched.)"""
        tables, source, merged = build_runs(key_sets)
        view, _ = rebuild_view(None, tables)
        target = seek_goal(key)
        initial, upcoming = view.prefetch_plan(target, reverse=reverse)
        planned = initial + upcoming
        first_fetch = {}  # run number -> offset of its first fetched block

        def counting(number, ref):
            first_fetch.setdefault(number, ref.offset)
            return source(number, ref)

        stream = view.stream_reverse if reverse else view.stream
        list(stream(target, counting))
        touched = list(first_fetch)
        if reverse:
            assert upcoming == []
            assert touched[: len(planned)] == [number for number, _ in planned]
        else:
            assert touched == [number for number, _ in planned]
        for number, handle in planned:
            assert first_fetch[number] == handle.offset


class TestRebuild:
    @given(run_sets, st.sets(user_keys, min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_incremental_rebuild_equals_full_build(self, key_sets, extra):
        old_tables, _, _ = build_runs(key_sets)
        old, _ = rebuild_view(None, old_tables)
        new_tables, source, merged = build_runs(key_sets + [extra])
        incremental, stats = rebuild_view(old, new_tables)
        full, _ = rebuild_view(None, new_tables)
        assert list(incremental.stream(None, source)) == merged
        assert list(incremental.stream(None, source)) == list(
            full.stream(None, source)
        )
        assert stats.segments_reused + stats.segments_rebuilt == len(
            incremental.segments
        )

    @given(run_sets)
    @settings(max_examples=40, deadline=None)
    def test_removal_rebuild_equals_full_build(self, key_sets):
        tables, _, _ = build_runs(key_sets)
        old, _ = rebuild_view(None, tables)
        survivors = dict(list(tables.items())[:-1])
        incremental, _ = rebuild_view(old, survivors)
        full, _ = rebuild_view(None, survivors)
        _, source, _ = build_runs(key_sets)
        assert list(incremental.stream(None, source)) == list(
            full.stream(None, source)
        )

    def test_unchanged_tables_reuse_every_segment(self):
        tables, _, _ = build_runs([{b"a", b"b", b"c"}, {b"b", b"d"}])
        old, _ = rebuild_view(None, tables)
        view, stats = rebuild_view(old, dict(tables))
        assert stats.segments_reused == len(old.segments)
        assert stats.segments_rebuilt == 0
        assert view.segments == old.segments

    def test_trivial_move_reuses_every_segment(self):
        """A level-only change (trivial move) must not re-derive anything."""
        from dataclasses import replace

        tables, _, _ = build_runs([{b"a", b"b", b"c"}, {b"x", b"y"}])
        old, _ = rebuild_view(None, tables)
        moved = {n: replace(run, level=run.level + 1) for n, run in tables.items()}
        view, stats = rebuild_view(old, moved)
        assert stats.segments_rebuilt == 0
        assert view.segments == old.segments
        assert view.tables[1].level == 1

    def test_empty_table_set_builds_empty_view(self):
        view, stats = rebuild_view(None, {})
        assert view.segments == [] and view.tables == {}
        assert stats.segments_rebuilt == 0

    @given(run_sets)
    @settings(max_examples=40, deadline=None)
    def test_anchors_strictly_ascending_and_normalized(self, key_sets):
        tables, _, _ = build_runs(key_sets)
        view, _ = rebuild_view(None, tables)
        anchors = [seg.anchor for seg in view.segments]
        for prev, nxt in zip(anchors, anchors[1:]):
            assert internal_order(prev) < internal_order(nxt)
        for anchor in anchors:
            assert anchor == user_key_anchor(anchor)


class TestAnchors:
    @given(user_keys, st.integers(0, MAX_SEQUENCE))
    def test_anchor_is_smallest_internal_key_of_user_key(self, key, seq):
        ikey = make_internal_key(key, seq, TYPE_VALUE)
        anchor = user_key_anchor(ikey)
        assert extract_user_key(anchor) == key
        assert internal_order(anchor) <= internal_order(ikey)

