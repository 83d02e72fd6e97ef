"""Unit tests for a sequential pass's readahead window (``SequentialStack``)."""

from repro.lsm.block import BlockBuilder
from repro.lsm.block_cache import BlockPath, SequentialStack
from repro.lsm.format import BLOCK_TRAILER_SIZE, BlockHandle, seal_block
from repro.sim.clock import SimClock
from repro.sim.latency import LatencyModel
from repro.storage.cloud import CloudObjectStore
from repro.storage.env import CloudEnv
from repro.util.encoding import TYPE_VALUE, make_internal_key


def value(i, size=100):
    return bytes([i % 256]) * size


def build_file(num_blocks=50, value_size=100, rtt=10e-3):
    """A cloud object of sealed one-entry blocks, block ``i`` holding
    :func:`value` ``(i)``; returns (file, clock, handles, store)."""
    clock = SimClock()
    store = CloudObjectStore(
        clock, LatencyModel(rtt, rtt, 1e6, 1e6)
    )
    data = bytearray()
    handles = []
    for i in range(num_blocks):
        builder = BlockBuilder()
        key = make_internal_key(b"k%04d" % i, 1, TYPE_VALUE)
        builder.fill([(key, value(i, value_size))])
        payload = builder.finish()
        handles.append(BlockHandle(len(data), len(payload)))
        data += seal_block(payload)
    store.put("table.sst", bytes(data))
    env = CloudEnv(store)
    file = env.new_random_access_file("table.sst")
    return file, clock, handles, store


def sequential(file, window):
    return SequentialStack("table.sst", file, BlockPath(), window)


def served(stack, handle):
    """The one value of the block ``stack`` serves at ``handle``."""
    [(_key, _trailer, got)] = stack.block(handle)
    return got


class TestReadahead:
    def test_served_payload_correct_across_refetches(self):
        file, _, handles, _ = build_file(num_blocks=200)
        stack = sequential(file, 1 << 10)
        for i in range(200):
            assert served(stack, handles[i]) == value(i)
        assert stack.fetches > 1  # small window -> multiple fetches

    def test_scan_saves_round_trips(self):
        file, clock, handles, store = build_file(num_blocks=100, rtt=10e-3)
        start = clock.now
        for h in handles:
            store.get_range("table.sst", h.offset, h.size + BLOCK_TRAILER_SIZE)
        per_block = clock.now - start
        stack = sequential(file, 64 << 10)
        start = clock.now
        for h in handles:
            stack.block(h)
        assert clock.now - start < per_block / 2

    def test_nonsequential_access_discards_buffer(self):
        file, _, handles, store = build_file()
        stack = sequential(file, 4 * (handles[1].offset - handles[0].offset))
        served(stack, handles[0])
        assert stack.fetches == 1
        assert served(stack, handles[2]) == value(2)  # inside the window
        assert stack.fetches == 1
        assert served(stack, handles[40]) == value(40)  # a jump past it: a new window
        assert stack.fetches == 2
        # Re-touching a block of the old window must read it again.
        assert served(stack, handles[3]) == value(3)
        assert stack.fetches == 3


class TestPrime:
    def test_prime_serves_first_block_without_streak(self):
        file, _, handles, _ = build_file()
        stack = sequential(file, 4 << 10)
        stack.prime(handles[0])
        assert stack.fetches == 1
        # The primed window serves the pass's opening blocks: no second read.
        for i in range(0, 30):
            assert served(stack, handles[i]) == value(i), i
        assert stack.fetches == 1

    def test_prime_covers_at_least_one_block(self):
        file, _, handles, _ = build_file(value_size=3000)
        stack = sequential(file, 16)
        stack.prime(handles[5])  # a window smaller than the block: rounded up
        assert stack.fetched_bytes == handles[5].size + BLOCK_TRAILER_SIZE
        assert served(stack, handles[5]) == value(5, 3000)
        assert stack.fetches == 1
