"""Unit tests: subcompaction boundary picking, partition planning, and the
eager (coalesced) compaction readahead path."""

import pytest

from repro.lsm.compaction import pick_subcompaction_boundaries
from repro.lsm.db import DB
from repro.lsm.format import BlockHandle, seal_block
from repro.lsm.options import Options
from repro.lsm.version import FileMetaData
from repro.lsm.block import BlockBuilder
from repro.lsm.block_cache import BlockPath, SequentialStack
from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel
from repro.storage.cloud import CloudObjectStore
from repro.storage.env import CloudEnv, LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import MAX_SEQUENCE, TYPE_VALUE, make_internal_key


def meta(number, smallest, largest):
    return FileMetaData(
        number=number,
        file_size=1024,
        smallest=make_internal_key(smallest, MAX_SEQUENCE, TYPE_VALUE),
        largest=make_internal_key(largest, 1, TYPE_VALUE),
    )


class TestBoundaryPicking:
    def test_no_files_no_boundaries(self):
        assert pick_subcompaction_boundaries([], 4) == []

    def test_serial_request_no_boundaries(self):
        files = [meta(1, b"a", b"m"), meta(2, b"n", b"z")]
        assert pick_subcompaction_boundaries(files, 1) == []

    def test_single_file_without_anchors_cannot_split(self):
        # One file contributes only its two fences — both excluded as the
        # global extremes, so there is nothing to split on.
        assert pick_subcompaction_boundaries([meta(1, b"a", b"z")], 4) == []

    def test_single_key_range(self):
        files = [meta(1, b"k", b"k"), meta(2, b"k", b"k")]
        assert pick_subcompaction_boundaries(files, 8) == []

    def test_fences_become_boundaries(self):
        files = [
            meta(1, b"a", b"f"),
            meta(2, b"g", b"p"),
            meta(3, b"q", b"z"),
        ]
        boundaries = pick_subcompaction_boundaries(files, 4)
        assert boundaries == sorted(boundaries)
        assert 1 <= len(boundaries) <= 3
        for boundary in boundaries:
            assert b"a" < boundary < b"z"

    def test_anchors_split_overlapping_l0_files(self):
        # Every L0 file spans the whole range: fences collapse to the two
        # extremes and only in-file anchors provide interior candidates.
        files = [meta(1, b"a", b"z"), meta(2, b"a", b"z")]
        assert pick_subcompaction_boundaries(files, 4) == []
        anchors = {1: [b"g", b"n", b"t"], 2: [b"h", b"o", b"u"]}
        boundaries = pick_subcompaction_boundaries(
            files, 4, anchors_of=lambda m: anchors[m.number]
        )
        assert 1 <= len(boundaries) <= 3
        assert boundaries == sorted(set(boundaries))

    def test_skewed_distribution_respects_cap(self):
        # 20 files crammed into a narrow range plus one outlier: at most
        # max_parts - 1 boundaries, all strictly interior, ever returned.
        files = [meta(i, b"aa", b"ab") for i in range(1, 21)]
        files.append(meta(99, b"aa", b"zz"))
        anchors = lambda m: [b"aa", b"ab"] if m.number != 99 else [b"m"]
        boundaries = pick_subcompaction_boundaries(files, 4, anchors_of=anchors)
        assert len(boundaries) <= 3
        for boundary in boundaries:
            assert b"aa" < boundary < b"zz"

    def test_duplicate_candidates_deduped(self):
        files = [meta(i, b"a", b"z") for i in range(1, 5)]
        boundaries = pick_subcompaction_boundaries(
            files, 8, anchors_of=lambda m: [b"m", b"m", b"m"]
        )
        assert boundaries == [b"m"]


def tiny_options(**overrides) -> Options:
    base = dict(
        write_buffer_size=2 << 10,
        block_size=256,
        max_bytes_for_level_base=8 << 10,
        target_file_size_base=2 << 10,
        block_cache_bytes=0,
    )
    base.update(overrides)
    return Options(**base)


class TestPartitionedCompaction:
    def fill_db(self, parallelism):
        env = LocalEnv(LocalDevice(SimClock()))
        db = DB.open(env, "db/", tiny_options(max_subcompactions=parallelism))
        for i in range(600):
            db.put(f"key{i * 7 % 600:05d}".encode(), f"value{i}".encode() * 4)
        db.compact_range(None, None)
        return db

    def test_parallel_contents_match_serial(self):
        serial = self.fill_db(1)
        parallel = self.fill_db(4)
        try:
            assert list(parallel.scan(None, None)) == list(serial.scan(None, None))
        finally:
            serial.close()
            parallel.close()

    def test_subcompactions_counted(self):
        db = self.fill_db(4)
        try:
            assert db.compaction_stats.subcompactions_run >= 2
            assert db.metrics()["compaction.subcompactions_run"] == (
                db.compaction_stats.subcompactions_run
            )
        finally:
            db.close()

    def test_serial_runs_no_subcompactions(self):
        db = self.fill_db(1)
        try:
            assert db.compaction_stats.subcompactions_run == 0
        finally:
            db.close()

    def test_readahead_counted_and_contents_match(self):
        # Every input is read in one pass per partition: four partitions
        # restart the pass at their seeks, so they fetch at least as often.
        serial = self.fill_db(1)
        parallel = self.fill_db(4)
        try:
            stats = serial.compaction_stats, parallel.compaction_stats
            assert all(s.coalesced_fetches > 0 and s.coalesced_fetched_bytes > 0 for s in stats)
            assert parallel.compaction_stats.coalesced_fetches >= serial.compaction_stats.coalesced_fetches
            for db in (serial, parallel):  # compaction reads count under no block source
                assert not any(v for k, v in db.metrics().items() if k.startswith("blocks."))
            assert list(parallel.scan(None, None)) == list(serial.scan(None, None))
        finally:
            serial.close()
            parallel.close()


def build_cloud_file(num_blocks=40, rtt=10e-3):
    """A cloud table-like object of one-entry blocks, block ``i`` holding
    ``bytes([i]) * 100``; returns (file, store, handles)."""
    clock = SimClock()
    store = CloudObjectStore(clock, LatencyModel(rtt, rtt, 1e6, 1e6))
    data = bytearray()
    handles = []
    for i in range(num_blocks):
        builder = BlockBuilder()
        builder.add(make_internal_key(b"k%04d" % i, 1, TYPE_VALUE), bytes([i % 256]) * 100)
        payload = builder.finish()
        handles.append(BlockHandle(len(data), len(payload)))
        data += seal_block(payload)
    store.put("table.sst", bytes(data))
    file = CloudEnv(store).new_random_access_file("table.sst")
    return file, store, handles


def served(stack, handle):
    [(_key, _trailer, value)] = stack.block(handle)
    return value


class TestEagerReadahead:
    """A compaction input's pass (``SequentialStack``) reads ahead from its
    first block on, one ranged read per window."""

    def test_serves_from_first_block(self):
        file, store, handles = build_cloud_file()
        stack = SequentialStack("table.sst", file, BlockPath(), 64 << 10)
        assert served(stack, handles[0]) == bytes([0]) * 100
        assert stack.fetches == 1

    def test_one_fetch_covers_many_blocks(self):
        file, store, handles = build_cloud_file()
        stack = SequentialStack("table.sst", file, BlockPath(), 64 << 10)
        before = store.counters.get("cloud.get_ops")
        for i, handle in enumerate(handles):
            assert served(stack, handle) == bytes([i % 256]) * 100
        gets = store.counters.get("cloud.get_ops") - before
        # 40 blocks fit comfortably in one 64K window: far fewer requests
        # than blocks.
        assert gets * 2 <= len(handles)
        assert stack.fetches == gets

    def test_jump_restarts_run_instead_of_disabling(self):
        file, store, handles = build_cloud_file()
        window = 4 * (handles[1].offset - handles[0].offset)  # four blocks
        stack = SequentialStack("table.sst", file, BlockPath(), window)
        served(stack, handles[0])
        served(stack, handles[1])
        # A subcompaction-style seek past the window: the pass restarts its
        # coalesced run there rather than degrading to per-block reads.
        assert served(stack, handles[20]) == bytes([20]) * 100
        assert served(stack, handles[21]) == bytes([21]) * 100
        assert stack.fetches == 2
