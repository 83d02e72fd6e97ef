"""Unit tests for partitioned (per-block) bloom filters."""

import pytest

from repro.errors import CorruptionError
from repro.lsm.format import decode_partitioned_filter, encode_partitioned_filter
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import TableReader
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import TYPE_VALUE, seek_goal


def build(partitioning, n=400, block_size=512):
    env = LocalEnv(LocalDevice(SimClock()))
    options = Options(
        block_size=block_size,
        filter_partitioning=partitioning,
        block_cache_bytes=0,
    )
    builder = TableBuilder(options, env.new_writable_file("t.sst"))
    for i in range(n):
        builder.add(f"key{i:06d}".encode(), -((7 << 8) | TYPE_VALUE), b"v" * 50)
    props = builder.finish()
    reader = TableReader(options, env.new_random_access_file("t.sst"))
    return env, props, reader


class TestEncoding:
    def test_roundtrip(self):
        parts = [b"filter-a", b"", b"filter-c" * 10]
        assert decode_partitioned_filter(encode_partitioned_filter(parts)) == parts

    def test_empty_list(self):
        assert decode_partitioned_filter(encode_partitioned_filter([])) == []

    def test_corrupt_offsets_detected(self):
        payload = bytearray(encode_partitioned_filter([b"abc", b"def"]))
        payload[-5] = 0xFF  # garble an offset
        with pytest.raises(CorruptionError):
            decode_partitioned_filter(bytes(payload))


class TestPartitionedTables:
    def test_lookups_correct(self):
        _, props, reader = build("block")
        assert len(props.blocks) > 1
        for i in range(0, 400, 13):
            found = reader.get(seek_goal(f"key{i:06d}".encode(), 100))
            assert found == (f"key{i:06d}".encode(), -((7 << 8) | TYPE_VALUE), b"v" * 50)

    def test_absent_keys_rejected_without_data_read(self):
        env, _, reader = build("block")
        device = env.device
        device.counters.reset()
        misses = 0
        for i in range(300):
            if reader.get(seek_goal(f"zzz-absent-{i}".encode(), 100)) is None:
                misses += 1
        assert misses == 300
        # Partition probes answer from memory: no data-block reads at all.
        assert device.counters.get("local.read_ops") == 0

    def test_absent_keys_inside_key_range_rejected(self):
        env, _, reader = build("block")
        device = env.device
        device.counters.reset()
        for i in range(400):
            # Keys that fall between existing keys (same format, odd suffix).
            user_key = f"key{i:06d}x".encode()
            found = reader.get(seek_goal(user_key, 100))
            if found is not None:
                # A bloom false positive read the block and returned the
                # *neighbouring* entry; the caller detects the mismatch.
                assert found[0] != user_key
        # Bloom rejects most probes from memory; only false positives
        # (~1% at 10 bits/key) cost a data-block read.
        assert device.counters.get("local.read_ops") < 40

    def test_iteration_unaffected(self):
        _, _, reader = build("block")
        entries = list(reader.entries())
        assert len(entries) == 400
        assert entries == sorted(entries)
        assert [k for k, _, _ in entries] == [f"key{i:06d}".encode() for i in range(400)]

    def test_whole_table_mode_still_works(self):
        _, _, reader = build("table")
        assert reader._partitions is None
        assert not reader.may_contain(b"definitely-absent-qqq")
        found = reader.get(seek_goal(b"key000100", 100))
        assert found is not None and found[0] == b"key000100"

    def test_option_validated(self):
        with pytest.raises(ValueError):
            Options(filter_partitioning="row")

    def test_db_end_to_end(self):
        from repro.lsm.db import DB

        env = LocalEnv(LocalDevice(SimClock()))
        options = Options(
            write_buffer_size=4 << 10,
            block_size=512,
            max_bytes_for_level_base=16 << 10,
            target_file_size_base=4 << 10,
            filter_partitioning="block",
            block_cache_bytes=0,
        )
        db = DB.open(env, "db/", options)
        for i in range(2000):
            db.put(f"k{i:05d}".encode(), b"x" * 60)
        for i in range(0, 2000, 83):
            assert db.get(f"k{i:05d}".encode()) == b"x" * 60
        assert db.get(b"absent-key") is None
        db.close()
        db2 = DB.open(env, "db/", options)
        assert db2.get(b"k00042") == b"x" * 60
        db2.close()
