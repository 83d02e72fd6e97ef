"""Unit tests for block building/reading (restart points, prefix compression)."""

import itertools

import pytest

from repro.errors import CorruptionError
from repro.lsm.block import Block, BlockBuilder, _shared_prefix_len
from repro.util.encoding import TYPE_VALUE, encode_fixed32, make_internal_key, seek_goal
from repro.util.varint import encode_varint


def ik(user_key, seq=1):
    """Internal-key bytes, what a block stores: the tests' keys are user keys."""
    return make_internal_key(user_key, seq, TYPE_VALUE)


def at(user_key, seq=1):
    """The sort key ``ik(user_key, seq)`` decodes to: an exact-match goal."""
    return user_key, -((seq << 8) | TYPE_VALUE)


def rows(entries):
    """What a block built from ``ik``-wrapped ``(user_key, value)`` pairs yields."""
    return [(*at(key), value) for key, value in entries]


def naive_shared_prefix_len(a, b):
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def reference_encode(entries, restart_interval=16):
    """The block format spelled out: every length a varint, one at a time."""
    buffer = bytearray()
    restarts = [0]
    counter = 0
    last_key = b""
    for key, value in entries:
        if counter >= restart_interval:
            restarts.append(len(buffer))
            counter = 0
            shared = 0
        else:
            shared = naive_shared_prefix_len(last_key, key)
        buffer += encode_varint(shared)
        buffer += encode_varint(len(key) - shared)
        buffer += encode_varint(len(value))
        buffer += key[shared:]
        buffer += value
        last_key = key
        counter += 1
    for offset in restarts:
        buffer += encode_fixed32(offset)
    buffer += encode_fixed32(len(restarts))
    return bytes(buffer)


def build(entries, restart_interval=16):
    builder = BlockBuilder(restart_interval)
    builder.fill((ik(k), v) for k, v in entries)
    return Block(builder.finish())


class TestBlockBuilder:
    def test_empty_finish(self):
        builder = BlockBuilder()
        block = Block(builder.finish())
        assert list(block) == []

    def test_size_estimate_grows(self):
        builder = BlockBuilder()
        before = builder.size_estimate
        builder.fill([(b"key", b"value")])
        assert builder.size_estimate > before

    def test_reset(self):
        builder = BlockBuilder()
        builder.fill([(ik(b"a"), b"1")])
        builder.reset()
        assert builder.num_entries == 0
        builder.fill([(ik(b"b"), b"2")])
        block = Block(builder.finish())
        assert list(block) == rows([(b"b", b"2")])

    def test_invalid_restart_interval(self):
        with pytest.raises(ValueError):
            BlockBuilder(0)

    def test_prefix_compression_saves_space(self):
        shared = [(f"commonprefix/{i:06d}".encode(), b"v") for i in range(100)]
        unique = [(f"{i:06d}/suffix-unrelated".encode(), b"v") for i in range(100)]
        b_shared = BlockBuilder(16)
        b_shared.fill(shared)
        b_unique = BlockBuilder(16)
        b_unique.fill(unique)
        assert len(b_shared.finish()) < len(b_unique.finish())


class TestBlockRead:
    def test_roundtrip_order(self):
        entries = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(200)]
        block = build(entries)
        assert list(block) == rows(entries)

    def test_roundtrip_small_restart_interval(self):
        entries = [(f"k{i:04d}".encode(), b"x" * i) for i in range(50)]
        block = build(entries, restart_interval=1)
        assert list(block) == rows(entries)

    def test_entries_are_split_once_into_user_key_neg_trailer_value(self):
        """Sequence and type ride in ``neg_trailer = -((seq << 8) | type)``, so
        the tuples sort natively in internal-key order: newest first within
        a user key, tombstone after value at one sequence."""
        builder = BlockBuilder()
        keys = [
            make_internal_key(b"a", 9, 0),
            make_internal_key(b"a", 3, TYPE_VALUE),
            make_internal_key(b"a", 3, 0),
            make_internal_key(b"ab", 1 << 55, TYPE_VALUE),
        ]
        builder.fill((key, b"v%d" % n) for n, key in enumerate(keys))
        got = list(Block(builder.finish()))
        assert got == [
            (b"a", -(9 << 8), b"v0"),
            (b"a", -((3 << 8) | 1), b"v1"),
            (b"a", -(3 << 8), b"v2"),
            (b"ab", -((1 << 63) | 1), b"v3"),
        ]
        assert got == sorted(got)

    def test_get_exact(self):
        entries = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(100)]
        block = build(entries)
        assert block.first(at(b"k0042")) == (*at(b"k0042"), b"v42")
        assert block.first(at(b"k0000")) == (*at(b"k0000"), b"v0")
        assert block.first(at(b"k0099")) == (*at(b"k0099"), b"v99")
        # A newer goal of the same user key lands on its older entry, which
        # a point get's key check then rejects.
        assert block.first(at(b"k0042", seq=2)) == (*at(b"k0042"), b"v42")

    def test_get_missing(self):
        block = build([(b"b", b"1"), (b"d", b"2")])
        assert block.first(at(b"a")) == (*at(b"b"), b"1")
        assert block.first(at(b"c")) == (*at(b"d"), b"2")
        assert block.first(at(b"e")) is None

    def test_seek(self):
        entries = [(f"k{i:02d}".encode(), b"v") for i in range(0, 20, 2)]
        block = build(entries, restart_interval=4)
        got = list(block.seek(seek_goal(b"k07")))
        assert got[0][0] == b"k08"
        assert [k for k, _, _ in got] == [b"k08", b"k10", b"k12", b"k14", b"k16", b"k18"]

    def test_seek_within_a_user_key(self):
        """A goal names a snapshot boundary inside a user key's versions."""
        builder = BlockBuilder(2)
        versions = [(ik(b"k", seq), b"v%d" % seq) for seq in (9, 7, 5, 3)]
        builder.fill([*versions, (ik(b"l", 1), b"other")])
        block = Block(builder.finish())

        def values_from(goal):
            return [value for _, _, value in block.seek(goal)]

        assert values_from(seek_goal(b"k")) == [b"v9", b"v7", b"v5", b"v3", b"other"]
        assert values_from(seek_goal(b"k", 6)) == [b"v5", b"v3", b"other"]
        assert values_from(seek_goal(b"k", 5)) == [b"v5", b"v3", b"other"]
        assert values_from(seek_goal(b"k", 2)) == [b"other"]

    def test_seek_before_first(self):
        entries = [(b"m", b"1")]
        block = build(entries)
        assert list(block.seek(seek_goal(b"a"))) == rows(entries)

    def test_seek_past_last(self):
        block = build([(b"a", b"1")])
        assert list(block.seek(seek_goal(b"z"))) == []

    def test_empty_values_and_keys_with_nulls(self):
        entries = [(b"\x00", b""), (b"\x00\x01", b"\x00val"), (b"a\x00b", b"v")]
        block = build(entries)
        assert list(block) == rows(entries)

    def test_corrupt_restart_count(self):
        with pytest.raises(CorruptionError):
            Block(b"\x01")

    def test_corrupt_truncated_entry(self):
        builder = BlockBuilder()
        builder.fill([(ik(b"key"), b"value" * 100)])
        data = builder.finish()
        # Chop bytes from the middle of the entry body, keep trailer intact.
        bad = data[:18] + data[-8:]
        block = Block(bad)
        with pytest.raises(CorruptionError):
            list(block)

    def test_duplicate_keys_preserved(self):
        # The block layer itself allows equal keys (internal keys never
        # collide, but the layer should not silently drop entries).
        block = build([(b"k", b"1"), (b"k", b"2")])
        assert list(block) == rows([(b"k", b"1"), (b"k", b"2")])


EDGE_LENGTHS = (0, 127, 128, 16384)  # either side of the one-byte varint limit


class TestOneByteLengthFastPath:
    """Lengths below 0x80 are written and read as single bytes; that is an
    identity of the varint encoding, not a second format."""

    @pytest.mark.parametrize(
        "shared,non_shared,value_len", itertools.product(EDGE_LENGTHS, repeat=3)
    )
    def test_edge_lengths_encode_and_decode_alike(self, shared, non_shared, value_len):
        """The second entry is encoded with exactly these three lengths: its
        unshared bytes are user-key bytes plus the 8-byte trailer. With
        ``non_shared == 0`` it repeats the first key, trailer and all, so the
        shared length is ``shared + 8`` — an internal key is never empty."""
        first = (b"a" * shared, b"w" * non_shared)
        second = (b"a" * shared + b"c" * max(non_shared - 8, 0), b"v" * value_len)
        entries = [first, second, (second[0] + b"d", b"")]
        encoded = [(ik(key), value) for key, value in entries]
        assert naive_shared_prefix_len(encoded[0][0], encoded[1][0]) == (
            shared if non_shared else shared + 8
        )
        assert len(encoded[1][0]) - shared == (non_shared or 8)
        builder = BlockBuilder()
        builder.fill(encoded)
        assert builder.size_estimate == len(reference_encode(encoded))
        data = builder.finish()
        assert data == reference_encode(encoded)

        block = Block(data)
        assert list(block) == rows(entries)
        for i, (key, value) in enumerate(entries):
            first_equal = 0 if entries[0][0] == key else i  # seek lands on the first equal key
            assert list(block.seek(at(key))) == rows(entries[first_equal:])
            assert block.first(at(key)) == rows(entries[first_equal:])[0]

    @pytest.mark.parametrize("restart_interval", [1, 2, 16])
    def test_mixed_paths_across_restart_runs(self, restart_interval):
        entries = [
            (b"k%04d" % i + b"x" * (150 if i % 5 == 0 else 3), b"v" * (200 if i % 7 == 0 else i))
            for i in range(60)
        ]
        encoded = [(ik(key), value) for key, value in entries]
        builder = BlockBuilder(restart_interval)
        builder.fill(encoded)
        data = builder.finish()
        assert data == reference_encode(encoded, restart_interval)
        block = Block(data)
        assert list(block) == rows(entries)
        for i, (key, value) in enumerate(entries):
            assert list(block.seek(at(key))) == rows(entries[i:])
            assert list(block.seek(seek_goal(key))) == rows(entries[i:])
            assert list(block.seek(at(key, seq=0))) == rows(entries[i + 1 :])  # an older one
            assert list(block.seek(seek_goal(key + b"\x00"))) == rows(entries[i + 1 :])
            assert block.first(at(key)) == (*at(key), value)

    def test_seek_is_lazy_past_the_run_it_needs(self):
        """A lookup decodes one restart run: damage in a later run is not
        its business (a full iteration still finds it)."""
        entries = [(ik(b"k%02d" % i), b"v") for i in range(8)]
        data = bytearray(reference_encode(entries, restart_interval=4))
        second_run = int.from_bytes(data[-8:-4], "little")
        data[second_run + 15] = 99  # k05 claims 99 bytes of the 11-byte k04
        block = Block(bytes(data))
        assert block.first(at(b"k01")) == (*at(b"k01"), b"v")
        assert next(block.seek(at(b"k02"))) == (*at(b"k02"), b"v")
        with pytest.raises(CorruptionError):
            list(block)
        with pytest.raises(CorruptionError):
            list(block.seek(at(b"k02")))

    def test_first_seek_decodes_every_restart_key(self):
        """The first seek builds the block's restart sort keys — it decodes
        the (whole) key at every restart point after the first — so damage
        in a later run's *first* entry surfaces on that first seek, wherever
        the target lies. Entries past a restart point stay lazy (above)."""
        entries = [(ik(b"k%02d" % i), b"v") for i in range(12)]
        data = bytearray(reference_encode(entries, restart_interval=4))
        third_run = int.from_bytes(data[-8:-4], "little")
        data[third_run + 1] = 120  # k08, a restart entry, claims a 120-byte key
        block = Block(bytes(data))
        with pytest.raises(CorruptionError):
            block.first(at(b"k01"))
        with pytest.raises(CorruptionError):
            list(block)

    def test_restart_keys_are_decoded_once(self, monkeypatch):
        entries = [(b"k%02d" % i, b"v") for i in range(12)]
        block = build(entries, restart_interval=4)
        decoded = []
        plain = Block._decode
        monkeypatch.setattr(
            Block, "_decode", lambda self, at, stop: decoded.append(at) or plain(self, at, stop)
        )
        assert block.first(at(b"k05")) == (*at(b"k05"), b"v")
        first_seek = len(decoded)
        assert block.first(at(b"k05")) == (*at(b"k05"), b"v")
        assert block.first(at(b"k09")) == (*at(b"k09"), b"v")
        # Later seeks decode the one run they need, nothing else.
        assert len(decoded) == first_seek + 2
        assert first_seek == 2 + 1  # restart keys of runs two and three, then k05's run

    def test_empty_block_seeks_to_nothing(self):
        block = Block(BlockBuilder().finish())
        assert list(block.seek(seek_goal(b""))) == []
        assert block.first(at(b"k")) is None


def corrupt_body(body):
    """``body`` as the entry area of a block with one restart point."""
    return body + encode_fixed32(0) + encode_fixed32(1)


class TestCorruptEntries:
    """Each check fires whether the lengths were read as bytes or varints."""

    OVERRUN = "entry overruns block body"
    SHARED = "shared prefix longer than previous key"
    CASES = {
        "header cut short, one-byte lengths": (b"\x00", OVERRUN),
        "varint runs off the entry area": (b"\x00\x01\x80", OVERRUN),
        "shared exceeds previous key, one-byte": (bytes((5, 1, 0)) + b"x", SHARED),
        "shared exceeds previous key, varint": (encode_varint(200) + bytes((1, 0)) + b"x", SHARED),
        "shared exceeds a real previous key": (
            bytes((0, 10, 0)) + ik(b"ab") + bytes((11, 1, 0)) + b"c",
            SHARED,
        ),
        "key overruns the restart array, one-byte": (bytes((0, 100, 0)) + b"x", OVERRUN),
        "key overruns the restart array, varint": (
            b"\x00" + encode_varint(200) + b"\x00x",
            OVERRUN,
        ),
        "value overruns the restart array, one-byte": (bytes((0, 9, 50)) + ik(b"x"), OVERRUN),
        "value overruns the restart array, varint": (
            bytes((0, 9)) + encode_varint(5000) + ik(b"x"),
            OVERRUN,
        ),
        "key shorter than its trailer, one-byte": (bytes((0, 7, 0)) + b"1234567", "too short: 7"),
        "key shorter than its trailer, varint": (
            bytes((0, 3)) + encode_varint(200) + b"abc" + b"v" * 200,
            "too short: 3",
        ),
        "key shorter than its trailer after a whole one": (
            bytes((0, 9, 0)) + ik(b"x") + bytes((2, 1, 0)) + b"c",
            "too short: 3",
        ),
    }

    @pytest.mark.parametrize("body,message", CASES.values(), ids=CASES.keys())
    def test_raises_corruption_error(self, body, message):
        block = Block(corrupt_body(body))
        with pytest.raises(CorruptionError, match=message):
            list(block)
        with pytest.raises(CorruptionError, match=message):
            list(block.seek(seek_goal(b"")))
        with pytest.raises(CorruptionError, match=message):
            block.first(at(b"x"))

    def test_restart_point_outside_the_entry_area(self):
        data = bytes((0, 1, 1)) + b"kv" + encode_fixed32(0) + encode_fixed32(6) + encode_fixed32(2)
        with pytest.raises(CorruptionError):
            Block(data)


class TestSharedPrefixLen:
    @pytest.mark.parametrize(
        "a,b",
        [
            (b"", b""),
            (b"", b"abc"),
            (b"abc", b""),
            (b"abc", b"abc"),
            (b"abc", b"abcdef"),
            (b"abcdef", b"abc"),
            (b"abc", b"abd"),
            (b"xbc", b"abc"),
            (b"\x00\x00", b"\x00\x00\x00"),
            (b"\x00\x01", b"\x00\x00\x01"),
            (b"a" * 300 + b"\x01", b"a" * 300 + b"\x02"),
            (b"a" * 300 + b"\x80", b"a" * 300 + b"\x00" + b"z" * 40),
        ],
    )
    def test_matches_naive_loop(self, a, b):
        assert _shared_prefix_len(a, b) == naive_shared_prefix_len(a, b)
