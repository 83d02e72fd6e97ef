"""Unit tests for a WriteBatch's trip through the log, and WAL framing.

A batch has no encoding of its own: the log (the one-shard xWAL here, every
baseline's log) writes its ops into a shard record, and replay hands them
back with their sequence numbers.
"""

import pytest

from repro.errors import CorruptionError
from repro.lsm.wal import (
    LogReader,
    LogWriter,
    XWalConfig,
    XWalReplayer,
    XWalWriter,
    decode_shard_record,
    encode_shard_record,
    read_log_file,
)
from repro.lsm.write_batch import WriteBatch
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import TYPE_DELETION, TYPE_VALUE


@pytest.fixture
def env():
    return LocalEnv(LocalDevice(SimClock()))


def logged(env, batch: WriteBatch) -> list[tuple[int, int, bytes, bytes]]:
    """Log ``batch`` as generation 1 of a one-shard log and replay it."""
    writer = XWalWriter(env, "db/", 1, XWalConfig())
    writer.add_batch(batch)
    writer.close()
    return list(XWalReplayer(env, XWalConfig()).replay(1, env.list_files("db/000001-")))


def record_of(batch: WriteBatch) -> bytes:
    """The shard record a one-shard log writes for ``batch``."""
    seq = batch.sequence
    ops = []
    for op in batch:
        ops.append((seq, op.value_type, op.key, op.value))
        seq += 1
    return encode_shard_record(ops)


class TestWriteBatch:
    def test_roundtrip(self, env):
        batch = WriteBatch()
        batch.put(b"k1", b"v1").put(b"k2", b"").delete(b"k3")
        batch.sequence = 42
        assert logged(env, batch) == [
            (42, TYPE_VALUE, b"k1", b"v1"),
            (43, TYPE_VALUE, b"k2", b""),
            (44, TYPE_DELETION, b"k3", b""),
        ]

    def test_empty_batch(self, env):
        batch = WriteBatch()
        assert len(batch) == 0
        assert logged(env, batch) == []
        assert env.read_file("db/000001-00.xlog") == b""

    def test_binary_safe(self, env):
        batch = WriteBatch()
        batch.put(b"\x00\xff", b"\x00" * 100)
        batch.sequence = 1
        assert logged(env, batch) == [(1, TYPE_VALUE, b"\x00\xff", b"\x00" * 100)]

    def test_truncated_raises(self):
        batch = WriteBatch()
        batch.put(b"key", b"value")
        data = record_of(batch)
        with pytest.raises(CorruptionError):
            decode_shard_record(data[:-3])

    def test_trailing_garbage_raises(self):
        batch = WriteBatch()
        batch.put(b"key", b"value")
        with pytest.raises(CorruptionError):
            decode_shard_record(record_of(batch) + b"junk")

    def test_unknown_type_raises(self):
        batch = WriteBatch()
        batch.put(b"key", b"value")
        data = bytearray(record_of(batch))
        data[12] = 0x7E  # corrupt the op type byte
        with pytest.raises(CorruptionError):
            decode_shard_record(bytes(data))


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
