"""Unit tests for block building/reading (restart points, prefix compression)."""

import itertools

import pytest

from repro.errors import CorruptionError
from repro.lsm.block import Block, BlockBuilder, _shared_prefix_len
from repro.util.encoding import encode_fixed32
from repro.util.varint import encode_varint


def bytewise(key):
    """Sort key for plain byte order."""
    return key


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
    for k, v in entries:
        builder.add(k, v)
    return Block(builder.finish(), bytewise)


class TestBlockBuilder:
    def test_empty_finish(self):
        builder = BlockBuilder()
        block = Block(builder.finish(), bytewise)
        assert list(block) == []

    def test_size_estimate_grows(self):
        builder = BlockBuilder()
        before = builder.size_estimate
        builder.add(b"key", b"value")
        assert builder.size_estimate > before

    def test_reset(self):
        builder = BlockBuilder()
        builder.add(b"a", b"1")
        builder.reset()
        assert builder.empty()
        builder.add(b"b", b"2")
        block = Block(builder.finish(), bytewise)
        assert list(block) == [(b"b", b"2")]

    def test_invalid_restart_interval(self):
        with pytest.raises(ValueError):
            BlockBuilder(0)

    def test_prefix_compression_saves_space(self):
        shared = [(f"commonprefix/{i:06d}".encode(), b"v") for i in range(100)]
        unique = [(f"{i:06d}/suffix-unrelated".encode(), b"v") for i in range(100)]
        b_shared = BlockBuilder(16)
        for k, v in shared:
            b_shared.add(k, v)
        b_unique = BlockBuilder(16)
        for k, v in unique:
            b_unique.add(k, v)
        assert len(b_shared.finish()) < len(b_unique.finish())


class TestBlockRead:
    def test_roundtrip_order(self):
        entries = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(200)]
        block = build(entries)
        assert list(block) == entries

    def test_roundtrip_small_restart_interval(self):
        entries = [(f"k{i:04d}".encode(), b"x" * i) for i in range(50)]
        block = build(entries, restart_interval=1)
        assert list(block) == entries

    def test_get_exact(self):
        entries = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(100)]
        block = build(entries)
        assert block.get(b"k0042") == b"v42"
        assert block.get(b"k0000") == b"v0"
        assert block.get(b"k0099") == b"v99"

    def test_get_missing(self):
        block = build([(b"b", b"1"), (b"d", b"2")])
        assert block.get(b"a") is None
        assert block.get(b"c") is None
        assert block.get(b"e") is None

    def test_seek(self):
        entries = [(f"k{i:02d}".encode(), b"v") for i in range(0, 20, 2)]
        block = build(entries, restart_interval=4)
        got = list(block.seek(b"k07"))
        assert got[0][0] == b"k08"
        assert [k for k, _ in got] == [b"k08", b"k10", b"k12", b"k14", b"k16", b"k18"]

    def test_seek_before_first(self):
        entries = [(b"m", b"1")]
        block = build(entries)
        assert list(block.seek(b"a")) == entries

    def test_seek_past_last(self):
        block = build([(b"a", b"1")])
        assert list(block.seek(b"z")) == []

    def test_empty_values_and_keys_with_nulls(self):
        entries = [(b"\x00", b""), (b"\x00\x01", b"\x00val"), (b"a\x00b", b"v")]
        block = build(entries)
        assert list(block) == entries

    def test_corrupt_restart_count(self):
        with pytest.raises(CorruptionError):
            Block(b"\x01", bytewise)

    def test_corrupt_truncated_entry(self):
        builder = BlockBuilder()
        builder.add(b"key", b"value" * 100)
        data = builder.finish()
        # Chop bytes from the middle of the entry body, keep trailer intact.
        bad = data[:10] + data[-8:]
        block = Block(bad, bytewise)
        with pytest.raises(CorruptionError):
            list(block)

    def test_duplicate_keys_preserved(self):
        # The block layer itself allows equal keys (internal keys never
        # collide, but the layer should not silently drop entries).
        block = build([(b"k", b"1"), (b"k", b"2")])
        assert list(block) == [(b"k", b"1"), (b"k", b"2")]


EDGE_LENGTHS = (0, 127, 128, 16384)  # either side of the one-byte varint limit


class TestOneByteLengthFastPath:
    """Lengths below 0x80 are written and read as single bytes; that is an
    identity of the varint encoding, not a second format."""

    @pytest.mark.parametrize(
        "shared,non_shared,value_len", itertools.product(EDGE_LENGTHS, repeat=3)
    )
    def test_edge_lengths_encode_and_decode_alike(self, shared, non_shared, value_len):
        first = (b"a" * shared, b"w" * non_shared)
        second = (b"a" * shared + b"c" * non_shared, b"v" * value_len)
        entries = [first, second, (second[0] + b"d", b"")]
        builder = BlockBuilder()
        for key, value in entries:
            builder.add(key, value)
        assert builder.size_estimate == len(reference_encode(entries))
        data = builder.finish()
        assert data == reference_encode(entries)

        block = Block(data, bytewise)
        assert list(block) == entries
        for i, (key, value) in enumerate(entries):
            at = 0 if entries[0][0] == key else i  # seek lands on the first equal key
            assert list(block.seek(key)) == entries[at:]
            assert block.get(key) == entries[at][1]

    @pytest.mark.parametrize("restart_interval", [1, 2, 16])
    def test_mixed_paths_across_restart_runs(self, restart_interval):
        entries = [
            (b"k%04d" % i + b"x" * (150 if i % 5 == 0 else 3), b"v" * (200 if i % 7 == 0 else i))
            for i in range(60)
        ]
        builder = BlockBuilder(restart_interval)
        for key, value in entries:
            builder.add(key, value)
        data = builder.finish()
        assert data == reference_encode(entries, restart_interval)
        block = Block(data, bytewise)
        assert list(block) == entries
        for i, (key, value) in enumerate(entries):
            assert list(block.seek(key)) == entries[i:]
            assert list(block.seek(key + b"\x00")) == entries[i + 1 :]
            assert block.get(key) == value

    def test_seek_is_lazy_past_the_run_it_needs(self):
        """A lookup decodes one restart run: damage in a later run is not
        its business (a full iteration still finds it)."""
        entries = [(b"k%02d" % i, b"v") for i in range(8)]
        data = bytearray(reference_encode(entries, restart_interval=4))
        second_run = int.from_bytes(data[-8:-4], "little")
        data[second_run + 7] = 99  # k05 claims 99 bytes of the 3-byte k04
        block = Block(bytes(data), bytewise)
        assert block.get(b"k01") == b"v"
        assert next(block.seek(b"k02")) == (b"k02", b"v")
        with pytest.raises(CorruptionError):
            list(block)
        with pytest.raises(CorruptionError):
            list(block.seek(b"k02"))

    def test_first_seek_decodes_every_restart_key(self):
        """The first seek builds the block's restart sort keys — it decodes
        the (whole) key at every restart point after the first — so damage
        in a later run's *first* entry surfaces on that first seek, wherever
        the target lies. Entries past a restart point stay lazy (above)."""
        entries = [(b"k%02d" % i, b"v") for i in range(12)]
        data = bytearray(reference_encode(entries, restart_interval=4))
        third_run = int.from_bytes(data[-8:-4], "little")
        data[third_run + 1] = 120  # k08, a restart entry, claims a 120-byte key
        block = Block(bytes(data), bytewise)
        with pytest.raises(CorruptionError):
            block.get(b"k01")
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
        assert block.get(b"k05") == b"v"
        first_seek = len(decoded)
        assert block.get(b"k05") == b"v"
        assert block.get(b"k09") == b"v"
        # Later seeks decode the one run they need, nothing else.
        assert len(decoded) == first_seek + 2
        assert first_seek == 2 + 1  # restart keys of runs two and three, then k05's run

    def test_empty_block_seeks_to_nothing(self):
        block = Block(BlockBuilder().finish(), bytewise)
        assert list(block.seek(b"")) == []
        assert block.get(b"k") is None


def corrupt_body(body):
    """``body`` as the entry area of a block with one restart point."""
    return body + encode_fixed32(0) + encode_fixed32(1)


class TestCorruptEntries:
    """Each check fires whether the lengths were read as bytes or varints."""

    CASES = {
        "header cut short, one-byte lengths": b"\x00",
        "varint runs off the entry area": b"\x00\x01\x80",
        "shared exceeds previous key, one-byte": bytes((5, 1, 0)) + b"x",
        "shared exceeds previous key, varint": encode_varint(200) + bytes((1, 0)) + b"x",
        "shared exceeds a real previous key": bytes((0, 2, 0)) + b"ab" + bytes((3, 1, 0)) + b"c",
        "key overruns the restart array, one-byte": bytes((0, 100, 0)) + b"x",
        "key overruns the restart array, varint": b"\x00" + encode_varint(200) + b"\x00x",
        "value overruns the restart array, one-byte": bytes((0, 1, 50)) + b"x",
        "value overruns the restart array, varint": bytes((0, 1)) + encode_varint(5000) + b"x",
    }

    @pytest.mark.parametrize("body", CASES.values(), ids=CASES.keys())
    def test_raises_corruption_error(self, body):
        block = Block(corrupt_body(body), bytewise)
        with pytest.raises(CorruptionError):
            list(block)
        with pytest.raises(CorruptionError):
            list(block.seek(b""))
        with pytest.raises(CorruptionError):
            block.get(b"x")

    def test_restart_point_outside_the_entry_area(self):
        data = bytes((0, 1, 1)) + b"kv" + encode_fixed32(0) + encode_fixed32(6) + encode_fixed32(2)
        with pytest.raises(CorruptionError):
            Block(data, bytewise)


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
