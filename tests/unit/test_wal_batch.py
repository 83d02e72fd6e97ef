"""Unit tests for WriteBatch serialization and WAL framing."""

import pytest

from repro.errors import CorruptionError
from repro.lsm.wal import LogReader, LogWriter, read_log_file
from repro.lsm.write_batch import WriteBatch
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import TYPE_DELETION, TYPE_VALUE


@pytest.fixture
def env():
    return LocalEnv(LocalDevice(SimClock()))


class TestWriteBatch:
    def test_roundtrip(self):
        batch = WriteBatch()
        batch.put(b"k1", b"v1").put(b"k2", b"").delete(b"k3")
        batch.sequence = 42
        decoded = WriteBatch.decode(batch.encode())
        assert decoded.sequence == 42
        ops = list(decoded)
        assert [(o.value_type, o.key, o.value) for o in ops] == [
            (TYPE_VALUE, b"k1", b"v1"),
            (TYPE_VALUE, b"k2", b""),
            (TYPE_DELETION, b"k3", b""),
        ]

    def test_empty_batch(self):
        batch = WriteBatch()
        decoded = WriteBatch.decode(batch.encode())
        assert len(decoded) == 0

    def test_clear(self):
        batch = WriteBatch()
        batch.put(b"k", b"v")
        batch.sequence = 9
        batch.clear()
        assert len(batch) == 0
        assert batch.sequence == 0

    def test_binary_safe(self):
        batch = WriteBatch()
        batch.put(b"\x00\xff", b"\x00" * 100)
        decoded = WriteBatch.decode(batch.encode())
        op = next(iter(decoded))
        assert op.key == b"\x00\xff"
        assert op.value == b"\x00" * 100

    def test_truncated_raises(self):
        batch = WriteBatch()
        batch.put(b"key", b"value")
        data = batch.encode()
        with pytest.raises(CorruptionError):
            WriteBatch.decode(data[:-3])

    def test_trailing_garbage_raises(self):
        batch = WriteBatch()
        batch.put(b"key", b"value")
        with pytest.raises(CorruptionError):
            WriteBatch.decode(batch.encode() + b"junk")

    def test_unknown_type_raises(self):
        batch = WriteBatch()
        batch.put(b"key", b"value")
        data = bytearray(batch.encode())
        data[12] = 0x7E  # corrupt the op type byte
        with pytest.raises(CorruptionError):
            WriteBatch.decode(bytes(data))


class TestWal:
    def test_write_read_roundtrip(self, env):
        writer = LogWriter(env.new_writable_file("wal.log"))
        records = [b"first", b"second record", b"", b"x" * 5000]
        for r in records:
            writer.add_record(r)
        writer.close()
        reader = read_log_file(env, "wal.log")
        assert list(reader) == records
        assert not reader.tail_corrupt

    def test_truncated_tail_stops_cleanly(self, env):
        writer = LogWriter(env.new_writable_file("wal.log"))
        writer.add_record(b"complete")
        writer.add_record(b"will-be-truncated")
        writer.close()
        data = env.read_file("wal.log")
        reader = LogReader(data[:-5])
        assert list(reader) == [b"complete"]
        assert reader.tail_corrupt

    def test_corrupt_record_stops(self, env):
        writer = LogWriter(env.new_writable_file("wal.log"))
        writer.add_record(b"good")
        writer.add_record(b"bad")
        writer.close()
        data = bytearray(env.read_file("wal.log"))
        data[-2] ^= 0xFF  # flip a bit inside the second payload
        reader = LogReader(bytes(data))
        assert list(reader) == [b"good"]
        assert reader.tail_corrupt

    def test_unsynced_record_lost_on_crash(self):
        device = LocalDevice(SimClock())
        env = LocalEnv(device)
        writer = LogWriter(env.new_writable_file("wal.log"))
        writer.add_record(b"durable", sync=True)
        writer.add_record(b"volatile", sync=False)
        device.crash()
        reader = read_log_file(env, "wal.log")
        assert list(reader) == [b"durable"]

    def test_empty_log(self, env):
        env.write_file("empty.log", b"")
        reader = read_log_file(env, "empty.log")
        assert list(reader) == []
        assert not reader.tail_corrupt
