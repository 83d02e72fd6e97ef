"""Unit tests for internal key encoding and comparison."""

import pytest

from repro.errors import CorruptionError
from repro.util.encoding import (
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
    entry_key,
    extract_user_key,
    internal_order,
    make_internal_key,
    seek_goal,
)


def split(ikey):
    """(user_key, sequence, type) read off the in-memory sort key."""
    user_key, neg_trailer = internal_order(ikey)
    return user_key, -neg_trailer >> 8, -neg_trailer & 0xFF


class TestFixed:
    def test_fixed32_roundtrip(self):
        for v in [0, 1, 0xFFFFFFFF, 123456]:
            assert decode_fixed32(encode_fixed32(v)) == v

    def test_fixed64_roundtrip(self):
        for v in [0, 1, 2**63, 2**64 - 1]:
            assert decode_fixed64(encode_fixed64(v)) == v

    def test_fixed32_little_endian(self):
        assert encode_fixed32(1) == b"\x01\x00\x00\x00"


class TestInternalKey:
    def test_roundtrip(self):
        ikey = make_internal_key(b"user", 42, TYPE_VALUE)
        assert split(ikey) == (b"user", 42, TYPE_VALUE)
        assert internal_order(ikey) == (b"user", -((42 << 8) | TYPE_VALUE))
        assert entry_key(*internal_order(ikey)) == ikey

    def test_empty_user_key(self):
        ikey = make_internal_key(b"", 7, TYPE_DELETION)
        assert split(ikey) == (b"", 7, TYPE_DELETION)
        assert entry_key(*internal_order(ikey)) == ikey

    def test_max_sequence(self):
        ikey = make_internal_key(b"k", MAX_SEQUENCE, TYPE_VALUE)
        assert split(ikey) == (b"k", MAX_SEQUENCE, TYPE_VALUE)
        assert entry_key(*internal_order(ikey)) == ikey

    def test_sequence_out_of_range(self):
        with pytest.raises(ValueError):
            make_internal_key(b"k", MAX_SEQUENCE + 1, TYPE_VALUE)

    def test_too_short_raises(self):
        with pytest.raises(CorruptionError):
            extract_user_key(b"short")

    def test_extract_user_key(self):
        assert extract_user_key(make_internal_key(b"abc", 1, TYPE_VALUE)) == b"abc"

    def test_seek_goal_sits_at_the_snapshot_boundary(self):
        """Ahead of every entry of the key at or below the sequence, of either
        type; behind every newer one; default: ahead of all of the key's."""
        goal = seek_goal(b"k", 5)
        assert goal == internal_order(make_internal_key(b"k", 5, TYPE_VALUE))
        assert internal_order(make_internal_key(b"k", 6, TYPE_DELETION)) < goal
        assert goal < internal_order(make_internal_key(b"k", 5, TYPE_DELETION))
        assert goal < internal_order(make_internal_key(b"k", 4, TYPE_VALUE))
        assert seek_goal(b"k") == internal_order(make_internal_key(b"k", MAX_SEQUENCE, TYPE_VALUE))
        # A goal sorts just before the decoded entry it prefixes.
        assert goal < (*goal, b"") and not (*goal, b"") < goal


class TestInternalOrder:
    def test_user_key_ascending(self):
        a = make_internal_key(b"a", 5, TYPE_VALUE)
        b = make_internal_key(b"b", 5, TYPE_VALUE)
        assert internal_order(a) < internal_order(b)
        assert internal_order(b) > internal_order(a)

    def test_sequence_descending_within_user_key(self):
        newer = make_internal_key(b"k", 10, TYPE_VALUE)
        older = make_internal_key(b"k", 5, TYPE_VALUE)
        assert internal_order(newer) < internal_order(older)  # newer sorts first

    def test_type_breaks_ties(self):
        put = make_internal_key(b"k", 5, TYPE_VALUE)
        delete = make_internal_key(b"k", 5, TYPE_DELETION)
        assert internal_order(put) < internal_order(delete)  # higher type first

    def test_equal(self):
        a = make_internal_key(b"k", 5, TYPE_VALUE)
        assert internal_order(a) == internal_order(bytes(a))

    def test_prefix_user_keys(self):
        # b"a" < b"ab" as user keys regardless of trailer bytes
        short = make_internal_key(b"a", 1, TYPE_VALUE)
        long = make_internal_key(b"ab", 9999, TYPE_VALUE)
        assert internal_order(short) < internal_order(long)

    def test_too_short_raises(self):
        with pytest.raises(CorruptionError):
            internal_order(b"short")

    def test_sorted_adaptor(self):
        keys = [
            make_internal_key(b"b", 1, TYPE_VALUE),
            make_internal_key(b"a", 2, TYPE_VALUE),
            make_internal_key(b"a", 9, TYPE_VALUE),
        ]
        ordered = sorted(keys, key=internal_order)
        assert ordered == [keys[2], keys[1], keys[0]]
