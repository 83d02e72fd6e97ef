"""Unit tests for SSTable builder + reader."""

import pytest

from repro.errors import CorruptionError, InvalidArgumentError
from repro.lsm.block_cache import BlockStack
from repro.lsm.db import DB
from repro.lsm.format import (
    FILTER_WHOLE_TABLE,
    FOOTER_SIZE,
    BlockHandle,
    Footer,
    decode_handle,
    encode_handle,
    parse_file_name,
    seal_block,
    table_file_name,
    unseal_block,
)
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import TableReader
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.bloom import BloomFilterPolicy
from repro.util.encoding import (
    TYPE_DELETION,
    TYPE_VALUE,
    extract_user_key,
    internal_order,
    make_internal_key,
    seek_goal,
)


@pytest.fixture
def env():
    return LocalEnv(LocalDevice(SimClock()))


def build_table(env, entries, options=None, name="000007.sst"):
    options = options or Options()
    builder = TableBuilder(options, env.new_writable_file(name))
    for ikey, value in entries:
        builder.add(*internal_order(ikey), value)
    props = builder.finish()
    reader = TableReader(options, env.new_random_access_file(name))
    return props, reader


def decoded(entries):
    """``(internal_key, value)`` pairs as a reader hands them out."""
    return [(*internal_order(ikey), value) for ikey, value in entries]


def make_entries(n, *, start=0, seq=100):
    return [
        (make_internal_key(f"key{i:06d}".encode(), seq, TYPE_VALUE), f"val{i}".encode())
        for i in range(start, start + n)
    ]


class TestFormatHelpers:
    def test_footer_roundtrip(self):
        footer = Footer(BlockHandle(10, 20), BlockHandle(40, 50))
        assert Footer.decode(footer.encode()) == footer

    def test_footer_bad_magic(self):
        data = bytearray(Footer(BlockHandle(0, 0), BlockHandle(0, 0)).encode())
        data[-1] ^= 0xFF
        with pytest.raises(CorruptionError):
            Footer.decode(bytes(data))

    def test_handle_roundtrip(self):
        h = BlockHandle(123456, 789)
        decoded, pos = decode_handle(encode_handle(h))
        assert decoded == h

    def test_seal_unseal(self):
        payload = b"some block payload"
        assert unseal_block(seal_block(payload)) == payload

    def test_unseal_detects_corruption(self):
        sealed = bytearray(seal_block(b"payload"))
        sealed[0] ^= 1
        with pytest.raises(CorruptionError):
            unseal_block(bytes(sealed))

    def test_file_names(self):
        assert table_file_name("db/", 7) == "db/000007.sst"
        assert parse_file_name("db/", "db/000007.sst") == ("table", 7)
        assert parse_file_name("db/", "db/000003.log") == ("log", 3)
        assert parse_file_name("db/", "db/MANIFEST-000002") == ("manifest", 2)
        assert parse_file_name("db/", "db/CURRENT") == ("current", 0)
        assert parse_file_name("db/", "other/000007.sst") is None
        assert parse_file_name("db/", "db/garbage") is None


class TestTableBuilder:
    def test_properties(self, env):
        entries = make_entries(100)
        props, _ = build_table(env, entries)
        assert props.num_entries == 100
        assert props.smallest_key == entries[0][0]
        assert props.largest_key == entries[-1][0]
        assert props.file_size > 0
        assert props.blocks, "expected at least one data block"

    def test_multiple_blocks(self, env):
        options = Options(block_size=256)
        props, _ = build_table(env, make_entries(500), options)
        assert len(props.blocks) > 1
        # Block key ranges tile the table in order without overlap.
        for i in range(1, len(props.blocks)):
            assert props.blocks[i - 1].last_key < props.blocks[i].first_key

    def test_out_of_order_rejected(self, env):
        builder = TableBuilder(Options(), env.new_writable_file("t.sst"))
        newest = -((9 << 8) | TYPE_VALUE)
        builder.add(b"b", newest, b"v")
        for user_key, neg_trailer in [
            (b"a", newest),  # smaller user key
            (b"b", newest - 1),  # newer entry of the last user key
            (b"b", newest),  # the last entry over again: the pair, never the value
        ]:
            with pytest.raises(InvalidArgumentError, match="out of order"):
                builder.add(user_key, neg_trailer, b"w")
        builder.add(b"b", newest + 1, b"")  # an older entry of the same key is in order
        assert builder.finish().num_entries == 2

    @pytest.mark.parametrize("neg_trailer", [1, 1 << 56, -(1 << 64), -(1 << 70)])
    def test_trailer_out_of_range_is_the_callers_error(self, env, neg_trailer):
        """A bad entry handed to ``add`` is an argument bug on the write side,
        not damaged bytes on the read side."""
        builder = TableBuilder(Options(), env.new_writable_file("t.sst"))
        with pytest.raises(InvalidArgumentError, match="neg_trailer") as raised:
            builder.add(b"k", neg_trailer, b"v")
        assert not isinstance(raised.value, CorruptionError)
        builder.add(b"k", 0, b"v")  # both ends of the range are entries
        builder.add(b"l", -(1 << 64) + 1, b"v")
        assert builder.finish().num_entries == 2

    def test_add_after_finish_rejected(self, env):
        builder = TableBuilder(Options(), env.new_writable_file("t.sst"))
        builder.add(b"a", -((1 << 8) | TYPE_VALUE), b"v")
        builder.finish()
        with pytest.raises(InvalidArgumentError, match=r"add\(\) after finish\(\)"):
            builder.add(b"b", -((1 << 8) | TYPE_VALUE), b"v")

    def test_empty_table_rejected(self, env):
        builder = TableBuilder(Options(), env.new_writable_file("t.sst"))
        with pytest.raises(InvalidArgumentError):
            builder.finish()

    def test_double_finish_rejected(self, env):
        builder = TableBuilder(Options(), env.new_writable_file("t.sst"))
        builder.add(b"a", -((1 << 8) | TYPE_VALUE), b"v")
        builder.finish()
        with pytest.raises(InvalidArgumentError):
            builder.finish()


class TestFilterBlock:
    """The builder keeps one list of user keys, the table's, and the filter
    bytes are what a filter built from the entries by hand would be."""

    def entries(self):
        # Two versions of every third key: a user key enters a filter once
        # per entry, and one may straddle a block boundary.
        out = []
        for i in range(300):
            key = f"key{i:06d}".encode()
            if i % 3 == 0:
                out.append((make_internal_key(key, 200, TYPE_VALUE), b"new"))
            out.append((make_internal_key(key, 100, TYPE_VALUE), f"val{i}".encode()))
        return out

    def filter_payload(self, env, reader):
        file = env.new_random_access_file(reader.name)
        return BlockStack(reader.name, file).read(reader.footer.filter_handle)

    def test_whole_table_filter_bytes(self, env):
        entries = self.entries()
        _, reader = build_table(env, entries, Options(block_size=256))
        expected = bytes([FILTER_WHOLE_TABLE]) + BloomFilterPolicy(10).create_filter(
            [extract_user_key(ikey) for ikey, _ in entries]
        )
        assert self.filter_payload(env, reader) == expected
        assert reader.footer.filter_handle.size == len(expected)

    def test_unknown_filter_tag_rejected_at_open(self, env):
        # 0x01 once tagged a per-block filter layout; one layout exists now,
        # and a block that passes its CRC under any other tag is corruption.
        _, reader = build_table(env, self.entries(), name="t.sst")
        handle = reader.footer.filter_handle
        payload = self.filter_payload(env, reader)
        assert payload[0] == FILTER_WHOLE_TABLE
        data = bytearray(env.read_file("t.sst"))
        resealed = seal_block(b"\x01" + payload[1:])
        data[handle.offset : handle.offset + len(resealed)] = resealed
        env.delete_file("t.sst")
        env.write_file("t.sst", bytes(data))
        with pytest.raises(CorruptionError, match="unknown filter-block tag 0x1"):
            TableReader(Options(), env.new_random_access_file("t.sst"))

    def test_empty_filter_block_rejected_at_open(self, env):
        # Every table is written with a filter; a footer that points at an
        # empty (CRC-valid) filter block is corruption.
        _, reader = build_table(env, self.entries(), name="t.sst")
        footer = reader.footer
        data = bytearray(env.read_file("t.sst"))
        empty = seal_block(b"")
        offset = footer.filter_handle.offset
        data[offset : offset + len(empty)] = empty
        emptied = Footer(BlockHandle(offset, 0), footer.index_handle)
        data[-FOOTER_SIZE:] = emptied.encode()
        env.delete_file("t.sst")
        env.write_file("t.sst", bytes(data))
        with pytest.raises(CorruptionError, match="empty filter block"):
            TableReader(Options(), env.new_random_access_file("t.sst"))

    @pytest.mark.parametrize("n", [7, 100, 1000])
    def test_entry_count_read_off_the_filter_length(self, env, n):
        # A filter holds ceil(max(64, n * 10) / 8) bytes plus the probe
        # byte, so its length gives n back to within one byte's worth of
        # keys at 10 bits per key. Below 7 entries the 64-bit floor hides n
        # (it reads as 6), which is why the smallest size here is 7.
        props, reader = build_table(env, make_entries(n), name=f"n{n}.sst")
        assert props.num_entries == n
        assert abs(reader.num_entries - props.num_entries) <= 1

    def test_every_compacted_table_carries_a_whole_table_filter(self, env):
        options = Options.small()
        db = DB.open(env, "db/", options)
        for i in range(600):
            db.put(f"key{i * 7 % 600:06d}".encode(), b"v" * 60)
        db.compact_range()
        live = list(db.versions.current.all_files())
        assert live
        for _level, meta in live:
            file = env.new_random_access_file(table_file_name("db/", meta.number))
            reader = TableReader(options, file)
            assert self.filter_payload(env, reader)[0] == FILTER_WHOLE_TABLE
        db.close()


class TestTableReader:
    def test_full_iteration(self, env):
        entries = make_entries(300)
        _, reader = build_table(env, entries, Options(block_size=512))
        assert list(reader.entries()) == decoded(entries)

    def test_get_present(self, env):
        entries = make_entries(200)
        _, reader = build_table(env, entries, Options(block_size=512))
        found = reader.get(seek_goal(b"key000123", 200))
        assert found == (b"key000123", -((100 << 8) | TYPE_VALUE), b"val123")

    def test_get_absent_via_bloom(self, env):
        entries = make_entries(100)
        _, reader = build_table(env, entries)
        assert not reader.may_contain(b"definitely-not-there-xyz")

    def test_get_respects_sequence_visibility(self, env):
        # Two versions of one key: seq 10 and seq 5.
        k = b"key"
        entries = [
            (make_internal_key(k, 10, TYPE_VALUE), b"new"),
            (make_internal_key(k, 5, TYPE_VALUE), b"old"),
        ]
        _, reader = build_table(env, entries)
        at7 = reader.get(seek_goal(k, 7))
        assert at7 is not None and at7[2] == b"old"
        at10 = reader.get(seek_goal(k, 10))
        assert at10 is not None and at10[2] == b"new"

    def test_tombstones_returned_not_interpreted(self, env):
        entries = [(make_internal_key(b"gone", 9, TYPE_DELETION), b"")]
        _, reader = build_table(env, entries)
        found = reader.get(seek_goal(b"gone", 100))
        assert found == (b"gone", -((9 << 8) | TYPE_DELETION), b"")

    def test_seek_iteration(self, env):
        entries = make_entries(100)
        options = Options(block_size=256)
        build_table(env, entries, options)
        file = env.new_random_access_file("000007.sst")
        fetched = []

        class Recording(BlockStack):
            def fetch(self, handle):
                fetched.append(handle)
                return super().fetch(handle)

        reader = TableReader(options, file, stack=Recording(file.name, file))
        # Entries at/after the target. Targets mid-table, on the first key,
        # before it and past the last (empty range).
        for user_key, split in [
            (b"key000050", 50),
            (b"key000000", 0),
            (b"a", 0),
            (b"key000099", 99),
            (b"z", 100),
        ]:
            target = seek_goal(user_key, 2**40)
            expected = decoded(entries[split:])
            del fetched[:]
            assert list(reader.entries(target)) == expected
            # The index-only edge lookup names the block read first; past
            # the last key there is none, and nothing is read.
            edge = reader.edge_data_handle(target)
            if expected:
                assert edge == fetched[0], user_key
            else:
                assert edge is None and fetched == []

    def test_truncated_file_detected(self, env):
        entries = make_entries(10)
        build_table(env, entries, name="t.sst")
        data = env.read_file("t.sst")
        env.delete_file("t.sst")
        env.write_file("t.sst", data[: len(data) // 2])
        with pytest.raises(CorruptionError):
            TableReader(Options(), env.new_random_access_file("t.sst"))

    def test_reads_are_ranged_not_whole_file(self, env):
        # A point lookup must not read the entire table.
        entries = make_entries(2000)
        options = Options(block_size=1024, block_cache_bytes=0)
        props, reader = build_table(env, entries, options)
        device = env.device
        device.counters.reset()
        reader.get(seek_goal(b"key000700", 2**40))
        assert device.counters.get("local.read_bytes") < props.file_size / 4
