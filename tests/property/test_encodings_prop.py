"""Property-based tests for encodings and on-disk record formats."""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError
from repro.lsm.block import Block, BlockBuilder, _shared_prefix_len
from repro.lsm.format import (
    BLOCK_TRAILER_SIZE,
    BlockHandle,
    decode_handle,
    encode_handle,
    seal_block,
    unseal_block,
)
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.version import FileMetaData, VersionEdit
from repro.lsm.wal import (
    LogReader,
    XWalConfig,
    XWalReplayer,
    XWalWriter,
    decode_shard_record,
    encode_shard_record,
)
from repro.lsm.write_batch import WriteBatch
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.bloom import BloomFilterPolicy, _bloom_hash, _bloom_hash_lanes
from repro.util.crc import crc32, mask, masked_crc32, unmask, verify_masked_crc32
from repro.util.encoding import (
    TYPE_DELETION,
    TYPE_VALUE,
    entry_key,
    internal_order,
    make_internal_key,
    seek_goal,
)
from repro.util.varint import (
    decode_varint,
    encode_varint,
    get_length_prefixed,
    put_length_prefixed,
)

keys = st.binary(min_size=0, max_size=64)
values = st.binary(min_size=0, max_size=256)
sequences = st.integers(min_value=0, max_value=(1 << 56) - 1)


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip(self, value):
        decoded, end = decode_varint(encode_varint(value))
        assert decoded == value

    @given(st.lists(st.binary(max_size=100), max_size=20))
    def test_length_prefixed_stream(self, chunks):
        out = bytearray()
        for chunk in chunks:
            put_length_prefixed(out, chunk)
        pos = 0
        decoded = []
        for _ in chunks:
            chunk, pos = get_length_prefixed(bytes(out), pos)
            decoded.append(chunk)
        assert decoded == chunks
        assert pos == len(out)


class TestCrc:
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_mask_bijective(self, value):
        assert unmask(mask(value)) == value

    @given(st.binary(max_size=500))
    def test_verify_accepts(self, data):
        assert verify_masked_crc32(data, masked_crc32(data))

    @given(st.binary(min_size=1, max_size=200), st.integers(0, 7))
    def test_bitflip_detected(self, data, bit):
        stored = masked_crc32(data)
        corrupted = bytearray(data)
        corrupted[0] ^= 1 << bit
        assert not verify_masked_crc32(bytes(corrupted), stored)

    @given(st.binary(max_size=100), st.binary(max_size=100))
    def test_chaining_equals_concat(self, a, b):
        assert crc32(a + b) == crc32(b, seed=crc32(a))


class TestInternalKey:
    @given(keys, sequences, st.sampled_from([TYPE_VALUE, TYPE_DELETION]))
    def test_roundtrip(self, user_key, seq, vtype):
        ikey = make_internal_key(user_key, seq, vtype)
        got_key, neg_trailer = internal_order(ikey)
        assert (got_key, -neg_trailer >> 8, -neg_trailer & 0xFF) == (user_key, seq, vtype)
        assert entry_key(got_key, neg_trailer) == ikey

    @given(
        st.lists(
            st.tuples(keys, sequences, st.sampled_from([TYPE_VALUE, TYPE_DELETION])),
            min_size=2,
            max_size=30,
        )
    )
    def test_order_matches_reference(self, parts):
        """internal_order == (user_key asc, (seq, type) desc)."""
        ikeys = [make_internal_key(k, s, t) for k, s, t in parts]
        got = sorted(ikeys, key=internal_order)
        ref = sorted(parts, key=lambda part: (part[0], -((part[1] << 8) | part[2])))
        assert got == [make_internal_key(k, s, t) for k, s, t in ref]


def varint_only_decode(data):
    """A block's entries, every length read with ``decode_varint``."""
    body_end = len(data) - 4 - 4 * int.from_bytes(data[-4:], "little")
    entries, pos, key = [], 0, b""
    while pos < body_end:
        shared, pos = decode_varint(data, pos)
        non_shared, pos = decode_varint(data, pos)
        value_len, pos = decode_varint(data, pos)
        key = key[:shared] + data[pos : pos + non_shared]
        pos += non_shared
        entries.append((key, data[pos : pos + value_len]))
        pos += value_len
    return entries


# Keys and values straddle 128 bytes, so one block mixes entries whose three
# lengths fit a byte each with entries that need a longer varint.
block_keys = st.lists(
    st.tuples(st.sampled_from([b"", b"p" * 120, b"q" * 140]), st.binary(max_size=12)).map(b"".join),
    min_size=1,
    max_size=40,
    unique=True,
).map(sorted)
block_values = st.one_of(st.binary(max_size=8), st.binary(min_size=120, max_size=135))


class TestBlockCodec:
    @given(st.binary(max_size=40), st.binary(max_size=8), st.binary(max_size=8))
    def test_shared_prefix_len_matches_naive_loop(self, prefix, a, b):
        for x, y in ((prefix + a, prefix + b), (prefix, prefix + b), (a, b)):
            n = 0
            while n < min(len(x), len(y)) and x[n] == y[n]:
                n += 1
            assert _shared_prefix_len(x, y) == n

    @given(block_keys, st.data(), st.integers(1, 16))
    def test_one_byte_lengths_are_varints(self, sorted_keys, data, restart_interval):
        # Stored keys are internal keys; one sequence keeps user-key order.
        entries = [
            (make_internal_key(key, 5, TYPE_VALUE), data.draw(block_values)) for key in sorted_keys
        ]
        builder = BlockBuilder(restart_interval)
        builder.fill(entries)
        assert builder.size_estimate == len(builder.finish())
        encoded = builder.finish()
        assert varint_only_decode(encoded) == entries

        split = [(*internal_order(key), value) for key, value in entries]
        block = Block(encoded)
        assert list(block) == split
        user_key = data.draw(st.one_of(st.sampled_from(sorted_keys), st.binary(max_size=150)))
        sequence = data.draw(st.sampled_from([4, 5, 6]))
        target = seek_goal(user_key, sequence)
        expected = [e for e in split if e[:2] >= target]
        assert list(block.seek(target)) == expected
        assert block.first(target) == (expected[0] if expected else None)


# Sorted entries as a flush or a merge hands them over: user keys that prefix
# one another and differ in length, several versions of one key, tombstones,
# values on both sides of the one-byte varint.
table_user_keys = st.lists(
    st.tuples(
        st.sampled_from([b"", b"k", b"key", b"key\x00", b"p" * 125]), st.binary(max_size=5)
    ).map(b"".join),
    min_size=1,
    max_size=24,
    unique=True,
)
table_versions = st.lists(
    st.tuples(
        st.integers(1, 40),
        st.one_of(st.none(), st.binary(max_size=20), st.binary(min_size=120, max_size=300)),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda version: version[0],
)


@st.composite
def table_entries(draw):
    entries = []
    for user_key in draw(table_user_keys):
        for sequence, value in draw(table_versions):
            if value is None:
                entries.append((user_key, -((sequence << 8) | TYPE_DELETION), b""))
            else:
                entries.append((user_key, -((sequence << 8) | TYPE_VALUE), value))
    return sorted(entries)


def restart_trailer(restarts):
    return struct.pack(f"<{len(restarts) + 1}I", *restarts, len(restarts))


def reference_data_blocks(entries, options, max_file_size):
    """``(data block payloads, entries taken, stopped by size)`` by the entry-at-a-time logic
    the stream builder replaced, straight-line: the block encoder with every
    length a varint, the table's cut at ``block_size`` and the merge loop's
    stop at ``max_file_size``."""
    blocks, offset, taken, stopped = [], 0, 0, False
    buffer, restarts, last_key, count = bytearray(), [0], b"", 0
    for user_key, neg_trailer, value in entries:
        key = user_key + struct.pack("<Q", -neg_trailer)
        shared = 0
        if count and count % 16 == 0:
            restarts.append(len(buffer))
        else:
            while shared < min(len(last_key), len(key)) and last_key[shared] == key[shared]:
                shared += 1
        for length in (shared, len(key) - shared, len(value)):
            buffer += encode_varint(length)
        buffer += key[shared:] + value
        last_key, count, taken = key, count + 1, taken + 1
        size = len(buffer) + 4 * len(restarts) + 4
        if size >= options.block_size:
            blocks.append(bytes(buffer) + restart_trailer(restarts))
            offset += len(seal_block(blocks[-1], compression=options.compression))
            buffer, restarts, last_key, count, size = bytearray(), [0], b"", 0, 8
        if max_file_size is not None and offset + size >= max_file_size:
            stopped = True
            break
    if count:
        blocks.append(bytes(buffer) + restart_trailer(restarts))
    return blocks, taken, stopped


class TestTableStream:
    """``TableBuilder.fill`` writes the same bytes whether it takes the
    stream whole, one entry per call or in chunks."""

    @staticmethod
    def table(options, feed):
        """Build one table with ``feed(builder)``; its bytes and properties."""
        env = LocalEnv(LocalDevice(SimClock()))
        builder = TableBuilder(options, env.new_writable_file("t.sst"))
        feed(builder)
        props = builder.finish()
        return env.new_random_access_file("t.sst").read(0, props.file_size), props

    @settings(max_examples=60)
    @given(
        table_entries(),
        st.sampled_from([64, 512, 4096]),
        st.sampled_from(["none", "zlib"]),
        st.one_of(st.none(), st.integers(64, 4096)),
        st.data(),
    )
    def test_fill_writes_what_add_wrote(self, entries, block_size, compression, max_file_size, data):
        options = dataclasses.replace(Options(), block_size=block_size, compression=compression)
        payloads, taken, stopped = reference_data_blocks(entries, options, max_file_size)

        def one_fill(builder):
            stream = iter(entries)
            assert builder.fill(stream, max_file_size) == stopped
            # Stopped by the size, the stream is on the next entry not taken.
            assert list(stream) == entries[taken:]

        def fill_each(builder):
            for entry in entries[:taken]:
                assert not builder.fill([entry])

        cuts = sorted(data.draw(st.lists(st.integers(0, len(entries)), max_size=4)))

        def chunked_fill(builder):
            for begin, end in zip([0, *cuts], [*cuts, len(entries)]):
                if builder.fill(iter(entries[begin:end]), max_file_size):
                    break

        file_bytes, props = self.table(options, one_fill)
        assert self.table(options, fill_each) == (file_bytes, props)
        assert self.table(options, chunked_fill) == (file_bytes, props)

        assert props.num_entries == taken
        stored = [
            unseal_block(file_bytes[meta.handle.offset :][: meta.handle.size + BLOCK_TRAILER_SIZE])
            for meta in props.blocks
        ]
        assert stored == payloads

    @settings(max_examples=40)
    @given(table_entries(), st.sampled_from([64, 512]), st.data())
    def test_bad_entry_mid_stream_leaves_the_earlier_ones(self, entries, block_size, data):
        options = dataclasses.replace(Options(), block_size=block_size)
        at = data.draw(st.integers(1, len(entries)))
        user_key, neg_trailer, value = entries[at - 1]
        bad, message = data.draw(
            st.sampled_from(
                [
                    ((user_key, neg_trailer, b"again"), "out of order"),
                    ((user_key, neg_trailer - 1, value), "out of order"),
                    ((user_key + b"\xff", 1, value), "neg_trailer"),
                    ((user_key + b"\xff", -(1 << 64), value), "neg_trailer"),
                ]
            )
        )

        def poisoned(builder):
            with pytest.raises(InvalidArgumentError, match=message):
                builder.fill(iter([*entries[:at], bad, *entries[at:]]))

        assert self.table(options, poisoned) == self.table(
            options, lambda builder: builder.fill(iter(entries[:at]))
        )


class TestBloomHash:
    @given(st.binary(max_size=64), st.sampled_from([0xBC9F1D34, 0, 0xFFFFFFFF]))
    def test_matches_byte_slicing_loop(self, data, seed):
        """The hash as first written: one ``int.from_bytes`` per 4-byte word,
        masked after every step."""
        m = 0xC6A4A793
        h = (seed ^ (len(data) * m)) & 0xFFFFFFFF
        i, n = 0, len(data)
        while n - i >= 4:
            w = int.from_bytes(data[i : i + 4], "little")
            h = (h + w) & 0xFFFFFFFF
            h = (h * m) & 0xFFFFFFFF
            h ^= h >> 16
            i += 4
        rest = n - i
        if rest >= 3:
            h = (h + (data[i + 2] << 16)) & 0xFFFFFFFF
        if rest >= 2:
            h = (h + (data[i + 1] << 8)) & 0xFFFFFFFF
        if rest >= 1:
            h = (h + data[i]) & 0xFFFFFFFF
            h = (h * m) & 0xFFFFFFFF
            h ^= h >> 24
        h ^= h >> 16
        h = (h * 0x85EBCA6B) & 0xFFFFFFFF
        h ^= h >> 13
        h = (h * 0xC2B2AE35) & 0xFFFFFFFF
        h ^= h >> 16
        assert _bloom_hash(data, seed) == h


def scalar_create_filter(keys, bits_per_key):
    """The filter build as it was before the lane-parallel one: scalar hash,
    one shift-and-or per probe. Kept verbatim as the reference."""
    k = max(1, min(30, int(bits_per_key * 0.69)))
    bits = max(64, len(keys) * bits_per_key)
    nbytes = (bits + 7) // 8
    bits = nbytes * 8
    array = bytearray(nbytes)
    for key in keys:
        h = _bloom_hash(key)
        delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
        for _ in range(k):
            bitpos = h % bits
            array[bitpos // 8] |= 1 << (bitpos % 8)
            h = (h + delta) & 0xFFFFFFFF
    array.append(k)
    return bytes(array)


def lane_hashes(group):
    hashes, _low32, lanes = _bloom_hash_lanes(group)
    return list(lanes.unpack(hashes.to_bytes(lanes.size, "little")))


class TestBloomLanes:
    """The lane-parallel group hash is the scalar hash, and the filter built
    from it is byte for byte the scalar build's."""

    @given(st.lists(st.binary(max_size=40), min_size=1))
    def test_every_lane_is_the_scalar_hash(self, keys):
        by_length = {}
        for key in keys:
            by_length.setdefault(len(key), []).append(key)
        for group in by_length.values():
            assert lane_hashes(group) == [_bloom_hash(key) for key in group]

    def test_lengths_tails_and_group_sizes(self):
        """Lengths 0-3 (no whole word), tails of 1-3 bytes after whole words,
        lengths past one 16-byte lane, a lone key, and 2 000 keys at once."""
        for length in (*range(0, 21), 31, 32, 33, 40, 64, 65):
            group = [bytes((i * 37 + j * 11) & 0xFF for j in range(length)) for i in range(5)]
            assert lane_hashes(group) == [_bloom_hash(key) for key in group], length
            assert lane_hashes(group[:1]) == [_bloom_hash(group[0])]
        # No carry out of a lane.
        assert lane_hashes([b"\xff" * 16] * 3) == [_bloom_hash(b"\xff" * 16)] * 3
        many = [b"user%012d" % (i * 7919) for i in range(2000)]
        assert lane_hashes(many) == [_bloom_hash(key) for key in many]

    @given(
        st.lists(st.binary(max_size=40), max_size=60),
        st.sampled_from([1, 5, 10, 13, 30]),
    )
    def test_create_filter_is_the_scalar_build(self, keys, bits_per_key):
        policy = BloomFilterPolicy(bits_per_key)
        built = policy.create_filter(keys)
        assert built == scalar_create_filter(keys, bits_per_key)
        assert all(policy.key_may_match(key, built) for key in keys)

    def test_create_filter_edge_shapes(self):
        mixed = [b"", b"a", b"ab", b"abc", b"abcd", b"k" * 16, b"k" * 17, b"", b"a"] + [
            b"user%012d" % i for i in range(260)
        ]
        for bits_per_key in (1, 5, 10, 13, 30):
            policy = BloomFilterPolicy(bits_per_key)
            for keys in ([], [b""], [b"x"], mixed, mixed[::-1]):
                assert policy.create_filter(keys) == scalar_create_filter(keys, bits_per_key)


class TestHandles:
    @given(st.integers(0, 2**48), st.integers(0, 2**32))
    def test_roundtrip(self, offset, size):
        handle, _ = decode_handle(encode_handle(BlockHandle(offset, size)))
        assert handle == BlockHandle(offset, size)


batch_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("del"), keys, st.just(b"")),
    ),
    max_size=30,
)


class TestWriteBatch:
    @given(batch_ops, sequences)
    def test_roundtrip(self, ops, seq):
        """A batch logged by the one-shard log replays op for op, each op
        at its own sequence number."""
        batch = WriteBatch()
        for kind, k, v in ops:
            if kind == "put":
                batch.put(k, v)
            else:
                batch.delete(k)
        batch.sequence = seq
        env = LocalEnv(LocalDevice(SimClock()))
        writer = XWalWriter(env, "db/", 1, XWalConfig())
        writer.add_batch(batch)
        writer.close()
        assert list(XWalReplayer(env, XWalConfig()).replay(1, env.list_files("db/000001-"))) == [
            (seq + i, TYPE_VALUE if kind == "put" else TYPE_DELETION, k, v)
            for i, (kind, k, v) in enumerate(ops)
        ]


class TestWalFraming:
    @given(st.lists(st.binary(max_size=300), max_size=15))
    def test_roundtrip(self, records):
        from repro.util.crc import masked_crc32 as mc
        from repro.util.encoding import encode_fixed32

        stream = bytearray()
        for payload in records:
            stream += encode_fixed32(mc(payload)) + encode_fixed32(len(payload)) + payload
        assert list(LogReader(bytes(stream))) == records

    @given(st.lists(st.binary(min_size=1, max_size=100), min_size=1, max_size=8), st.data())
    def test_truncation_yields_prefix(self, records, data):
        """Any truncation recovers a prefix of the records, never garbage."""
        from repro.util.crc import masked_crc32 as mc
        from repro.util.encoding import encode_fixed32

        stream = bytearray()
        for payload in records:
            stream += encode_fixed32(mc(payload)) + encode_fixed32(len(payload)) + payload
        cut = data.draw(st.integers(0, len(stream)))
        recovered = list(LogReader(bytes(stream[:cut])))
        assert recovered == records[: len(recovered)]
        assert len(recovered) <= len(records)


class TestXWalRecord:
    @given(
        st.lists(
            st.tuples(
                sequences,
                st.sampled_from([TYPE_VALUE, TYPE_DELETION]),
                keys,
                values,
            ),
            max_size=20,
        )
    )
    def test_roundtrip(self, ops):
        ops = [
            (s, t, k, v if t == TYPE_VALUE else b"") for s, t, k, v in ops
        ]
        assert decode_shard_record(encode_shard_record(ops)) == ops


class TestVersionEdit:
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 1000), keys, keys),
            max_size=10,
        ),
        st.sets(st.tuples(st.integers(0, 6), st.integers(1, 1000)), max_size=10),
    )
    @settings(max_examples=50)
    def test_roundtrip(self, new_files, deleted):
        edit = VersionEdit(log_number=3, next_file_number=50, last_sequence=99)
        for level, number, lo, hi in new_files:
            edit.add_file(
                level,
                FileMetaData(
                    number,
                    1000,
                    make_internal_key(min(lo, hi), 5, TYPE_VALUE),
                    make_internal_key(max(lo, hi), 5, TYPE_VALUE),
                ),
            )
        edit.deleted_files = deleted
        decoded = VersionEdit.decode(edit.encode())
        assert decoded.new_files == edit.new_files
        assert decoded.deleted_files == deleted
        assert decoded.last_sequence == 99
