"""Unit tests for the memtable."""

import pytest

from repro.lsm.memtable import GetResult, MemTable
from repro.util.encoding import TYPE_DELETION, TYPE_VALUE, make_internal_key, seek_goal


class TestMemTable:
    def test_empty(self):
        mt = MemTable()
        assert len(mt) == 0
        assert mt.get(b"k", 100).state == GetResult.ABSENT

    def test_put_get(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"v")
        result = mt.get(b"k", 100)
        assert result.state == GetResult.FOUND
        assert result.value == b"v"

    def test_newest_wins(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"old")
        mt.add(2, TYPE_VALUE, b"k", b"new")
        assert mt.get(b"k", 100).value == b"new"

    def test_snapshot_visibility(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"v1")
        mt.add(5, TYPE_VALUE, b"k", b"v5")
        assert mt.get(b"k", 1).value == b"v1"
        assert mt.get(b"k", 4).value == b"v1"
        assert mt.get(b"k", 5).value == b"v5"
        assert mt.get(b"k", 0).state == GetResult.ABSENT

    def test_delete_marks_deleted(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"k", b"v")
        mt.add(2, TYPE_DELETION, b"k", b"")
        assert mt.get(b"k", 100).state == GetResult.DELETED
        assert mt.get(b"k", 1).state == GetResult.FOUND

    def test_absent_vs_other_keys(self):
        mt = MemTable()
        mt.add(1, TYPE_VALUE, b"apple", b"v")
        mt.add(2, TYPE_VALUE, b"cherry", b"v")
        assert mt.get(b"banana", 100).state == GetResult.ABSENT

    def test_iteration_order(self):
        mt = MemTable()
        mt.add(3, TYPE_VALUE, b"b", b"v3")
        mt.add(1, TYPE_VALUE, b"a", b"v1")
        mt.add(2, TYPE_VALUE, b"b", b"v2")
        assert list(mt) == list(mt.entries())
        entries = list(mt.entries())
        # newest first within a user key
        assert [user_key for user_key, _, _ in entries] == [b"a", b"b", b"b"]
        assert [-neg_trailer >> 8 for _, neg_trailer, _ in entries] == [1, 3, 2]

    def test_seek(self):
        mt = MemTable()
        for i, key in enumerate([b"a", b"c", b"e"]):
            mt.add(i + 1, TYPE_VALUE, key, b"v")
        # Entries at/after the target. Targets between, before and past
        # the keys.
        cases = [
            (b"b", [b"c", b"e"]),
            (b"c", [b"c", b"e"]),
            (b"0", [b"a", b"c", b"e"]),
            (b"z", []),
        ]
        for user_key, at_or_after in cases:
            target = seek_goal(user_key, 2**50)
            assert [entry[0] for entry in mt.entries(target)] == at_or_after, user_key

    def test_live_iterators_do_not_see_later_inserts(self):
        # DB.scan is a generator its caller interleaves with writes: rows
        # added mid-scan must neither shift nor join what is left to yield.
        mt = MemTable()
        for i, key in enumerate([b"b", b"d", b"f", b"h"]):
            mt.add(i + 1, TYPE_VALUE, key, b"v")
        live, sought = mt.entries(), mt.entries(seek_goal(b"d", 2**50))
        rest_live = list(mt.entries())[2:]
        rest_sought = list(mt.entries(seek_goal(b"d", 2**50)))[2:]
        for it in (live, sought):
            next(it), next(it)
        for seq, key in enumerate([b"a", b"c", b"e", b"g", b"i"], start=10):
            mt.add(seq, TYPE_VALUE, key, b"late")
        assert list(live) == rest_live
        assert list(sought) == rest_sought
        assert len(list(mt)) == 9

    def test_duplicate_internal_key_raises(self):
        mt = MemTable()
        mt.add(7, TYPE_VALUE, b"k", b"v")
        with pytest.raises(ValueError):
            mt.add(7, TYPE_VALUE, b"k", b"other")
        mt.add(7, TYPE_DELETION, b"k", b"")  # another type is another key
        mt.add(8, TYPE_VALUE, b"k", b"v")
        assert len(mt) == 3

    def test_rows_are_decoded_entries_in_one_list(self):
        """One row list of ``(user_key, neg_trailer, value)``; a lookup is a
        bisect on the ``(user_key, neg_trailer)`` pair, so a key that is a
        prefix of its neighbour, or a lookup between two versions, lands on
        the right row and not merely on the right user key."""
        mt = MemTable()
        mt.add(4, TYPE_VALUE, b"k", b"v4")
        mt.add(9, TYPE_DELETION, b"k", b"")
        mt.add(2, TYPE_VALUE, b"k", b"v2")
        mt.add(6, TYPE_VALUE, b"kk", b"other")
        assert list(mt) == [
            (b"k", -((9 << 8) | TYPE_DELETION), b""),
            (b"k", -((4 << 8) | TYPE_VALUE), b"v4"),
            (b"k", -((2 << 8) | TYPE_VALUE), b"v2"),
            (b"kk", -((6 << 8) | TYPE_VALUE), b"other"),
        ]
        assert not hasattr(mt, "_order")
        seen = [mt.get(b"k", seq).value for seq in (1, 2, 3, 4, 8)]
        assert seen == [None, b"v2", b"v2", b"v4", b"v4"]
        assert mt.get(b"k", 1).state == GetResult.ABSENT
        assert mt.get(b"k", 9).state == GetResult.DELETED
        assert mt.get(b"kk", 5).state == GetResult.ABSENT

    def test_sequence_out_of_range_raises(self):
        with pytest.raises(ValueError):
            MemTable().add(1 << 56, TYPE_VALUE, b"k", b"v")

    def test_memory_usage_grows(self):
        mt = MemTable()
        assert mt.approximate_memory_usage() == 0
        mt.add(1, TYPE_VALUE, b"key", b"x" * 1000)
        assert mt.approximate_memory_usage() > 1000

    def test_value_with_embedded_ikey_lookalike(self):
        # Values are opaque; bytes that resemble keys must not confuse it.
        mt = MemTable()
        evil = make_internal_key(b"other", 99, TYPE_VALUE)
        mt.add(1, TYPE_VALUE, b"k", evil)
        assert mt.get(b"k", 100).value == evil
        assert mt.get(b"other", 100).state == GetResult.ABSENT
