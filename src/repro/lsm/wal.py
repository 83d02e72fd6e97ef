"""Write-ahead log: record framing and the engine's one log, the xWAL.

Record format::

    [masked crc32 fixed32][length fixed32][payload]

:class:`LogWriter` frames bytes and is shared with the MANIFEST. The reader
verifies each checksum and — like RocksDB — treats a truncated or corrupt
record as the end of the log: everything before it is recovered, everything
after is discarded. That matches the crash model of
:class:`~repro.storage.local.LocalDevice`, where a crash can leave a
partially synced tail.

The extended WAL (xWAL) is every store's log. A conventional WAL is one
serial file; replaying a large one gates restart time. The xWAL splits the
log of each generation into ``num_shards`` files, partitioning operations by
a hash of the user key. A serial WAL is its one-shard case, the engine's
default; RocksMash runs four. Two properties make parallel replay trivially
correct:

* every shard record carries **explicit per-op sequence numbers**, and the
  memtable orders entries by (user key, sequence) — so shards can be
  replayed in *any* order or interleaving;
* key-hash partitioning means all updates to one key live in one shard,
  preserving per-key ordering even under shard-local truncation after a
  crash (a torn tail in shard i only loses the newest updates of shard i's
  keys — prefix-consistency per key is retained).

Recovery forks the Env's clock per shard, charges each shard's read and
replay to its child, and joins on the max — modelling N parallel recovery
threads (the paper's "fast parallel data recovery"). Replay CPU is modelled
at ``apply_cost_per_record`` per record so recovery scales with record
count, not just bytes.

Shard record format (framed by :class:`LogWriter`)::

    [count fixed32] repeated: [seq fixed64][type 1B][varint klen][key]
                              ([varint vlen][value] for PUTs)

A single-op record is exactly as long as the one-batch record of the serial
WAL this format replaced; a multi-op batch pays 8 B per op after the first.

With key-value separation on, a value the blob log diverts is logged once,
here: its op has type :data:`TYPE_BLOB` and carries the value's blob record
(:func:`repro.lsm.blob.encode_blob_record`) in place of the value. The
memtable gets a pointer to that record — the generation, the record's offset
in the key's shard file, its length and its checksum — which the writer
returns and replay rebuilds from the same bytes. A store without separation
writes the same bytes it always did.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import CorruptionError
from repro.lsm.blob import encode_blob_record, pointer_to
from repro.lsm.format import xlog_file_name
from repro.lsm.write_batch import WriteBatch
from repro.sim.clock import ForkJoinRegion
from repro.sim.failure import crash_points
from repro.storage.env import Env, WritableFile
from repro.util.crc import crc32, masked_crc32, verify_masked_crc32
from repro.util.encoding import (
    TYPE_DELETION,
    TYPE_VALUE,
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
)
from repro.util.varint import get_length_prefixed, put_length_prefixed

if TYPE_CHECKING:
    from repro.mash.bloblog import BlobLog

RECORD_HEADER_SIZE = 8

TYPE_BLOB = 0x2
"""Shard-record op type of a diverted value: the op carries its blob record."""


class LogWriter:
    """Appends checksummed records to a writable file."""

    def __init__(self, file: WritableFile) -> None:
        self._file = file
        self.offset = 0

    def add_record(self, payload: bytes, *, sync: bool = True) -> None:
        """Append one record; durable on return when ``sync`` is True."""
        header = encode_fixed32(masked_crc32(payload)) + encode_fixed32(len(payload))
        self._file.append(header + payload)
        self.offset += RECORD_HEADER_SIZE + len(payload)
        if sync:
            self._file.sync()

    def close(self) -> None:
        self._file.close()


class LogReader:
    """Replays records from a log file's bytes.

    Stops silently at the first truncated or checksum-failing record —
    ``tail_corrupt`` records whether that happened so recovery can report it.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self.tail_corrupt = False
        self.bytes_read = 0

    def __iter__(self) -> Iterator[bytes]:
        data = self._data
        pos = 0
        n = len(data)
        while pos + RECORD_HEADER_SIZE <= n:
            stored_crc = decode_fixed32(data, pos)
            length = decode_fixed32(data, pos + 4)
            start = pos + RECORD_HEADER_SIZE
            end = start + length
            if end > n:
                self.tail_corrupt = True
                return
            payload = data[start:end]
            if not verify_masked_crc32(payload, stored_crc):
                self.tail_corrupt = True
                return
            self.bytes_read = end
            yield payload
            pos = end
        if pos != n:
            self.tail_corrupt = True


def read_log_file(env: Env, name: str) -> LogReader:
    """Open and fully read a log file into a :class:`LogReader`."""
    return LogReader(env.read_file(name))


@dataclass(frozen=True)
class XWalConfig:
    """Extended-WAL knobs; the default is the serial (one-shard) log."""

    num_shards: int = 1
    """Shard files per log generation. Recovery replays whatever shard files
    it finds, so a plain store may reopen with another count. For a store
    that separates values (``Options.blob_value_threshold``) the count is a
    store-lifetime setting: its pointers and its seal find a key's shard by
    ``shard_of(key, num_shards)``. Recovery refuses a shard file past the
    count; a count that grew cannot be seen, since a crash drops a shard file
    no sync reached."""
    apply_cost_per_record: float = 2e-6
    """Modelled CPU seconds to parse + insert one record during replay."""

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")


def shard_of(user_key: bytes, num_shards: int) -> int:
    """Deterministic shard assignment by key hash."""
    return crc32(user_key) % num_shards


def shard_file_names(prefix: str, number: int, num_shards: int) -> list[str]:
    """Every shard file of log generation ``number``."""
    return [xlog_file_name(prefix, number, shard) for shard in range(num_shards)]


XWalOp = tuple[int, int, bytes, bytes]  # (sequence, type, key, value)


def encode_shard_record(ops: list[XWalOp], blob_at: dict[int, int] | None = None) -> bytes:
    """Encode one shard record; ``blob_at`` collects each :data:`TYPE_BLOB`
    op's sequence -> where its blob record starts in the returned bytes."""
    out = bytearray()
    out += encode_fixed32(len(ops))
    for seq, value_type, key, value in ops:
        out += encode_fixed64(seq)
        out.append(value_type)
        put_length_prefixed(out, key)
        if value_type != TYPE_DELETION:
            put_length_prefixed(out, value)
            if value_type == TYPE_BLOB and blob_at is not None:
                blob_at[seq] = len(out) - len(value)
    return bytes(out)


def decode_shard_record(data: bytes, blob_at: dict[int, int] | None = None) -> list[XWalOp]:
    """Decode one shard record; ``blob_at`` as in :func:`encode_shard_record`."""
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
        if value_type != TYPE_DELETION:
            if value_type != TYPE_VALUE and value_type != TYPE_BLOB:
                raise CorruptionError(f"unknown xwal op type {value_type}")
            value, pos = get_length_prefixed(data, pos)
            if value_type == TYPE_BLOB and blob_at is not None:
                blob_at[seq] = pos - len(value)
        ops.append((seq, value_type, key, value))
    if pos != len(data):
        raise CorruptionError("trailing bytes after xwal record")
    return ops


def read_shard(data: bytes, number: int) -> tuple[list[XWalOp], int, bool]:
    """Every op of one shard file of generation ``number`` up to its torn
    tail, the bytes of the blob records among them, and whether the file had
    a torn tail. A diverted value comes back as a ``TYPE_VALUE`` op holding
    the pointer to its blob record, as the writer returned it."""
    reader = LogReader(data)
    ops: list[XWalOp] = []
    blob_bytes = 0
    for payload in reader:
        blob_at: dict[int, int] = {}
        decoded = decode_shard_record(payload, blob_at)
        if blob_at:
            start = reader.bytes_read - len(payload)
            for i, (seq, value_type, key, value) in enumerate(decoded):
                if value_type == TYPE_BLOB:
                    pointer = pointer_to(number, start + blob_at[seq], value)
                    decoded[i] = (seq, TYPE_VALUE, key, pointer)
                    blob_bytes += len(value)
        ops.extend(decoded)
    return ops, blob_bytes, reader.tail_corrupt


class XWalWriter:
    """Write side of one log generation."""

    def __init__(
        self,
        env: Env,
        prefix: str,
        number: int,
        config: XWalConfig,
        *,
        blob: BlobLog | None = None,
    ) -> None:
        self.env = env
        self.number = number
        self.config = config
        self.blob = blob
        """The blob log that decides which values divert; None: none do."""
        self._shards = [
            LogWriter(env.new_writable_file(name))
            for name in shard_file_names(prefix, number, config.num_shards)
        ]

    def add_batch(self, batch: WriteBatch, *, sync: bool = True) -> WriteBatch | None:
        """Split ``batch``'s ops into one record per touched shard and append.

        The log takes the batch itself and encodes it once: nothing on the
        write path parses what another layer encoded. Syncs of the touched
        shards are modelled as concurrent (fork/join): a multi-shard batch
        pays the *max* shard sync, not the sum. When a value diverts, returns
        the batch the memtable applies instead: each diverted value replaced
        by the pointer to its logged blob record.
        """
        blob = self.blob
        per_shard: dict[int, list[XWalOp]] = {}
        diverted = 0  # blob record bytes
        seq = batch.sequence
        for op in batch:
            value_type, value = op.value_type, op.value
            if blob is not None and value_type == TYPE_VALUE and blob.should_divert(value):
                value_type, value = TYPE_BLOB, encode_blob_record(seq, op.key, value)
                diverted += len(value)
            shard = shard_of(op.key, self.config.num_shards)
            per_shard.setdefault(shard, []).append((seq, value_type, op.key, value))
            seq += 1
        touched = sorted(per_shard)
        if not touched:
            return None
        pointers: dict[int, bytes] | None = {} if diverted else None
        if sync and len(touched) > 1:
            region = ForkJoinRegion(self.env.clock)
            for i, shard in enumerate(touched):
                if i > 0:
                    # Earlier shards of this batch are durable, this one and
                    # later ones are not — the torn multi-shard write.
                    crash_points.reach("xwal.partial_sync")
                with region.branch():
                    self._append(shard, per_shard[shard], True, pointers)
            region.join()
        else:
            for shard in touched:
                self._append(shard, per_shard[shard], sync, pointers)
        if pointers is None:
            return None
        assert blob is not None
        blob.logged(self.number, len(pointers), diverted)
        out = WriteBatch()
        out.sequence = seq = batch.sequence
        for op in batch:
            if seq in pointers:
                out.put(op.key, pointers[seq])
            elif op.value_type == TYPE_VALUE:
                out.put(op.key, op.value)
            else:
                out.delete(op.key)
            seq += 1
        return out

    def _append(
        self, shard: int, ops: list[XWalOp], sync: bool, pointers: dict[int, bytes] | None
    ) -> None:
        """Log one shard record; ``pointers`` collects sequence -> the
        pointer to each blob record in it."""
        writer = self._shards[shard]
        if pointers is None:
            writer.add_record(encode_shard_record(ops), sync=sync)
            return
        blob_at: dict[int, int] = {}
        payload = encode_shard_record(ops, blob_at)
        start = writer.offset + RECORD_HEADER_SIZE
        writer.add_record(payload, sync=sync)
        for seq, _value_type, _key, record in ops:
            if seq in blob_at:
                pointers[seq] = pointer_to(self.number, start + blob_at[seq], record)

    def close(self) -> None:
        for writer in self._shards:
            writer.close()


class XWalReplayer:
    """Recovery side: parallel replay of one log generation."""

    def __init__(self, env: Env, config: XWalConfig) -> None:
        self.env = env
        self.config = config
        self.corrupt_shards = 0
        self.records_replayed = 0
        self.blob_bytes = 0
        """Bytes of the blob records replayed: the values the generation
        holds, which its seal counts live."""

    def replay(self, number: int, names: list[str]) -> Iterator[XWalOp]:
        """Yield every op of generation ``number`` from its shard files
        ``names`` (the ones a listing found: a crash drops a file no sync
        reached); clock models parallelism.

        Ops are yielded shard-by-shard (not in global sequence order) —
        callers insert into the memtable, where explicit sequence numbers
        make order irrelevant. A diverted value comes back as its pointer.
        """
        region = ForkJoinRegion(self.env.clock)
        collected: list[tuple[list[XWalOp], int, bool]] = []
        for name in names:
            with region.branch() as clock:
                shard_ops, blob_bytes, torn = read_shard(self.env.read_file(name), number)
                clock.advance(self.config.apply_cost_per_record * len(shard_ops), "cpu")
                collected.append((shard_ops, blob_bytes, torn))
        region.join()
        # Shared counters fold *after* the join: branches model concurrent
        # readers, and sibling read-modify-write on self would race.
        for shard_ops, blob_bytes, torn in collected:
            if torn:
                self.corrupt_shards += 1
            self.records_replayed += len(shard_ops)
            self.blob_bytes += blob_bytes
            yield from shard_ops
