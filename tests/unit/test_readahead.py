"""Unit tests for the sequential readahead buffer."""

import pytest

from repro.lsm.format import BLOCK_TRAILER_SIZE, BlockHandle, seal_block
from repro.lsm.block_cache import ReadaheadBuffer
from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel
from repro.storage.cloud import CloudObjectStore
from repro.storage.env import CloudEnv


def build_file(num_blocks=50, block_payload=100, rtt=10e-3):
    """A cloud object of sealed blocks; returns (env, clock, handles)."""
    clock = SimClock()
    store = CloudObjectStore(
        clock, LatencyModel(rtt, rtt, 1e6, 1e6)
    )
    data = bytearray()
    handles = []
    for i in range(num_blocks):
        payload = bytes([i % 256]) * block_payload
        sealed = seal_block(payload)
        handles.append(BlockHandle(len(data), block_payload))
        data += sealed
    store.put("table.sst", bytes(data))
    env = CloudEnv(store)
    file = env.new_random_access_file("table.sst")
    return file, clock, handles, store


class TestReadahead:
    def test_random_access_never_serves(self):
        file, _, handles, _ = build_file()
        ra = ReadaheadBuffer(file)
        assert ra.get(handles[10]) is None
        assert ra.get(handles[30]) is None
        assert ra.get(handles[5]) is None
        assert ra.stats.fetches == 0

    def test_sequential_run_triggers_fetch_and_serves(self):
        file, _, handles, _ = build_file()
        ra = ReadaheadBuffer(file)
        assert ra.get(handles[0]) is None  # first touch
        assert ra.get(handles[1]) is None  # streak=1, not yet
        payload = ra.get(handles[2])  # streak=2 -> fetch
        assert payload == bytes([2]) * 100
        assert ra.stats.fetches == 1
        # Subsequent blocks come from the buffer.
        for i in range(3, 30):
            got = ra.get(handles[i])
            assert got == bytes([i % 256]) * 100
        assert ra.stats.sequential_hits > 0

    def test_served_payload_correct_across_refetches(self):
        file, _, handles, _ = build_file(num_blocks=200)
        ra = ReadaheadBuffer(file, readahead_bytes=1 << 10)
        ra.get(handles[0])
        ra.get(handles[1])
        for i in range(2, 200):
            got = ra.get(handles[i])
            assert got == bytes([i % 256]) * 100
        assert ra.stats.fetches > 1  # small buffer -> multiple fetches

    def test_scan_saves_round_trips(self):
        file, clock, handles, store = build_file(num_blocks=100, rtt=10e-3)

        def scan_with(ra):
            start = clock.now
            for h in handles:
                if ra is None or ra.get(h) is None:
                    store.get_range("table.sst", h.offset, h.size + BLOCK_TRAILER_SIZE)
            return clock.now - start

        per_block = scan_with(None)
        with_ra = scan_with(ReadaheadBuffer(file, readahead_bytes=64 << 10))
        assert with_ra < per_block / 2

    def test_nonsequential_access_discards_buffer(self):
        file, _, handles, store = build_file()
        ra = ReadaheadBuffer(file)
        ra.get(handles[0])
        ra.get(handles[1])
        assert ra.get(handles[2]) is not None  # buffer filled
        assert ra.get(handles[40]) is None  # jump: buffer dropped
        # Even re-touching a previously buffered block must miss now.
        assert ra.get(handles[3]) is None

    def test_adaptive_growth_resets_on_invalidate(self):
        file, _, handles, _ = build_file(num_blocks=200)
        ra = ReadaheadBuffer(file, readahead_bytes=64 << 10)
        ra.get(handles[0])
        ra.get(handles[1])
        ra.get(handles[2])
        grown = ra._current_readahead
        assert grown > ReadaheadBuffer.INITIAL_READAHEAD
        ra.invalidate()
        assert ra._current_readahead == ReadaheadBuffer.INITIAL_READAHEAD

    def test_invalid_config_rejected(self):
        file, _, _, _ = build_file(num_blocks=2)
        with pytest.raises(ValueError):
            ReadaheadBuffer(file, readahead_bytes=0)


class TestDescendingReadahead:
    """Point gets whose block reads on one table step down through adjacent
    blocks: the only guard on the descending detector (``_expected_rev``),
    which ``benchmarks.perf``'s ``read_cloud`` and ``mixed_a`` reach."""

    def test_descending_run_triggers_fetch_and_serves(self):
        file, _, handles, _ = build_file(num_blocks=60)
        ra = ReadaheadBuffer(file, readahead_bytes=64 << 10)
        assert ra.get(handles[59]) is None  # first touch
        assert ra.get(handles[58]) is None  # streak=1, not yet
        payload = ra.get(handles[57])  # streak=2 -> descending fetch
        assert payload == bytes([57]) * 100
        assert ra.stats.fetches == 1
        for i in range(56, 20, -1):
            got = ra.get(handles[i])
            assert got == bytes([i % 256]) * 100
        assert ra.stats.sequential_hits > 0

    def test_descending_saves_round_trips(self):
        file, clock, handles, store = build_file(num_blocks=100, rtt=10e-3)

        def scan_with(ra):
            start = clock.now
            for h in reversed(handles):
                if ra is None or ra.get(h) is None:
                    store.get_range("table.sst", h.offset, h.size + BLOCK_TRAILER_SIZE)
            return clock.now - start

        per_block = scan_with(None)
        with_ra = scan_with(ReadaheadBuffer(file, readahead_bytes=64 << 10))
        assert with_ra < per_block / 2

    def test_jump_discards_descending_buffer(self):
        file, _, handles, _ = build_file()
        ra = ReadaheadBuffer(file)
        ra.get(handles[20])
        ra.get(handles[19])
        assert ra.get(handles[18]) is not None  # descending buffer filled
        assert ra.get(handles[40]) is None  # jump: buffer dropped
        assert ra.get(handles[17]) is None  # and streak restarted

    def test_eager_mode_refetches_on_backward_step(self):
        file, _, handles, _ = build_file()
        ra = ReadaheadBuffer(file, eager=True)
        assert ra.get(handles[10]) is not None  # eager: first access fetches
        fetches = ra.stats.fetches
        # Eager (compaction) mode has no descending streak: a backward step
        # drops the buffer and re-fetches forward from the new position.
        assert ra.get(handles[9]) is not None
        assert ra.stats.fetches == fetches + 1


class TestPrime:
    def test_prime_serves_first_block_without_streak(self):
        file, _, handles, _ = build_file()
        ra = ReadaheadBuffer(file, readahead_bytes=64 << 10)
        ra.prime(handles[0], 4 << 10)
        assert ra.stats.fetches == 1
        # The primed range serves immediately — no two-touch warmup.
        for i in range(0, 30):
            got = ra.get(handles[i])
            assert got == bytes([i % 256]) * 100, i
        assert ra.stats.sequential_hits > 0

    def test_prime_covers_at_least_one_block(self):
        file, _, handles, _ = build_file(block_payload=3000)
        ra = ReadaheadBuffer(file, readahead_bytes=64 << 10)
        ra.prime(handles[5], 16)  # smaller than the block: rounded up
        assert ra.get(handles[5]) == bytes([5]) * 3000
