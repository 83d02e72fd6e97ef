"""Extended write-ahead log (xWAL): sharded log, parallel recovery.

A conventional WAL is one serial file; replaying a large one gates restart
time. The xWAL splits the log of each generation into ``num_shards``
files on the local device, partitioning operations by a hash of the user
key. Two properties make parallel replay trivially correct:

* every shard record carries **explicit per-op sequence numbers**, and the
  memtable orders entries by (user key, sequence) — so shards can be
  replayed in *any* order or interleaving;
* key-hash partitioning means all updates to one key live in one shard,
  preserving per-key ordering even under shard-local truncation after a
  crash (a torn tail in shard i only loses the newest updates of shard i's
  keys — prefix-consistency per key is retained).

Recovery forks the simulated clock per shard, charges each shard's read and
replay to its child, and joins on the max — modelling N parallel recovery
threads (the paper's "fast parallel data recovery"). Replay CPU is modelled
at ``apply_cost_per_record`` per record so recovery scales with record
count, not just bytes.

Shard record format (framed by :class:`~repro.lsm.wal.LogWriter`)::

    [count fixed32] repeated: [seq fixed64][type 1B][varint klen][key]
                              ([varint vlen][value] for PUTs)
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

from repro.errors import CorruptionError
from repro.lsm.format import xlog_file_name
from repro.lsm.wal import LogReader, LogWriter
from repro.lsm.write_batch import WriteBatch
from repro.sim.clock import ForkJoinRegion
from repro.sim.failure import crash_points
from repro.storage.env import Env
from repro.storage.local import LocalDevice
from repro.util.crc import crc32
from repro.util.encoding import (
    TYPE_VALUE,
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
)
from repro.util.varint import get_length_prefixed, put_length_prefixed


@dataclass(frozen=True)
class XWalConfig:
    """Extended-WAL knobs."""

    num_shards: int = 4
    apply_cost_per_record: float = 2e-6
    """Modelled CPU seconds to parse + insert one record during replay."""

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")


def shard_of(user_key: bytes, num_shards: int) -> int:
    """Deterministic shard assignment by key hash."""
    return crc32(user_key) % num_shards


XWalOp = tuple[int, int, bytes, bytes]  # (sequence, type, key, value)


def encode_shard_record(ops: list[XWalOp]) -> bytes:
    out = bytearray()
    out += encode_fixed32(len(ops))
    for seq, value_type, key, value in ops:
        out += encode_fixed64(seq)
        out.append(value_type)
        put_length_prefixed(out, key)
        if value_type == TYPE_VALUE:
            put_length_prefixed(out, value)
    return bytes(out)


def decode_shard_record(data: bytes) -> list[XWalOp]:
    if len(data) < 4:
        raise CorruptionError("xwal record shorter than header")
    count = decode_fixed32(data, 0)
    pos = 4
    ops: list[XWalOp] = []
    for _ in range(count):
        if pos + 9 > len(data):
            raise CorruptionError("xwal record truncated")
        seq = decode_fixed64(data, pos)
        value_type = data[pos + 8]
        pos += 9
        key, pos = get_length_prefixed(data, pos)
        value = b""
        if value_type == TYPE_VALUE:
            value, pos = get_length_prefixed(data, pos)
        ops.append((seq, value_type, key, value))
    if pos != len(data):
        raise CorruptionError("trailing bytes after xwal record")
    return ops


class XWalWriter:
    """Write side of one xWAL generation (drop-in for LogWriter in DB)."""

    def __init__(
        self,
        env: Env,
        device: LocalDevice,
        prefix: str,
        number: int,
        config: XWalConfig,
    ) -> None:
        self.env = env
        self.device = device
        self.prefix = prefix
        self.number = number
        self.config = config
        self._shards = [
            LogWriter(env.new_writable_file(xlog_file_name(prefix, number, shard)))
            for shard in range(config.num_shards)
        ]

    def add_record(self, payload: bytes, *, sync: bool = True) -> None:
        """Split a WriteBatch payload across shards and append.

        Syncs of the touched shards are modelled as concurrent (fork/join):
        a multi-shard batch pays the *max* shard sync, not the sum.
        """
        batch = WriteBatch.decode(payload)
        per_shard: dict[int, list[XWalOp]] = {}
        seq = batch.sequence
        for op in batch:
            shard = shard_of(op.key, self.config.num_shards)
            per_shard.setdefault(shard, []).append((seq, op.value_type, op.key, op.value))
            seq += 1
        touched = sorted(per_shard)
        if not touched:
            return
        if sync and len(touched) > 1:
            region = ForkJoinRegion(self.device.clock, [self.device])
            for i, shard in enumerate(touched):
                if i > 0:
                    # Earlier shards of this batch are durable, this one and
                    # later ones are not — the torn multi-shard write.
                    crash_points.reach("xwal.partial_sync")
                with region.branch():
                    self._shards[shard].add_record(
                        encode_shard_record(per_shard[shard]), sync=True
                    )
            region.join()
        else:
            for shard in touched:
                self._shards[shard].add_record(
                    encode_shard_record(per_shard[shard]), sync=sync
                )

    def sync(self) -> None:
        for writer in self._shards:
            writer.sync()

    def close(self) -> None:
        for writer in self._shards:
            writer.close()


class XWalReplayer:
    """Recovery side: parallel replay of one xWAL generation."""

    def __init__(
        self,
        env: Env,
        device: LocalDevice,
        prefix: str,
        config: XWalConfig,
    ) -> None:
        self.env = env
        self.device = device
        self.prefix = prefix
        self.config = config
        self.corrupt_shards = 0
        self.records_replayed = 0

    def shard_file_names(self, number: int) -> list[str]:
        return [
            xlog_file_name(self.prefix, number, shard)
            for shard in range(self.config.num_shards)
        ]

    def replay(
        self, number: int, whole: Callable[[list[XWalOp]], bool] | None = None
    ) -> Iterator[XWalOp]:
        """Yield every op of generation ``number``; clock models parallelism.

        Ops are yielded shard-by-shard (not in global sequence order) —
        callers insert into the memtable, where explicit sequence numbers
        make order irrelevant. ``whole`` (the blob log's check that a
        record's values survived the crash) ends a shard at the first
        record it rejects, as a torn tail would.
        """
        names = [n for n in self.shard_file_names(number) if self.env.file_exists(n)]
        if not names:
            return
        region = ForkJoinRegion(self.device.clock, [self.device])
        collected: list[tuple[list[XWalOp], bool]] = []
        for name in names:
            with region.branch() as child:
                data = self.env.read_file(name)
                reader = LogReader(data)
                shard_ops: list[XWalOp] = []
                for record in reader:
                    ops = decode_shard_record(record)
                    if whole is not None and not whole(ops):
                        reader.tail_corrupt = True
                        break
                    shard_ops.extend(ops)
                apply_cost = self.config.apply_cost_per_record * len(shard_ops)
                child.advance(apply_cost)
                tracer = getattr(self.device, "tracer", None)
                if tracer is not None:
                    tracer.charge("cpu", apply_cost)
                collected.append((shard_ops, reader.tail_corrupt))
        region.join()
        # Shared counters fold *after* the join: branches model concurrent
        # readers, and sibling read-modify-write on self would race.
        for shard_ops, tail_corrupt in collected:
            if tail_corrupt:
                self.corrupt_shards += 1
            self.records_replayed += len(shard_ops)
            yield from shard_ops
