"""Cloud-resident blob value log: WAL-time key-value separation.

Values at least ``Options.blob_value_threshold`` bytes long never enter the
memtable. The xWAL logs each one once, as its blob record inside its key's
shard record (:mod:`repro.lsm.wal`), and the memtable gets a fixed 32-byte
:class:`~repro.lsm.blob.BlobPointer` to it: the generation, the record's
offset in the key's shard file, its length and its checksum. Flushes and
compactions then move pointers, not payloads — the WiscKey/BVLSM trade that
keeps cloud PUT bytes and write amplification proportional to keys, not
values. There is one log, so one sync makes a put durable, value and all.

Lifecycle and crash protocol:

- ``seal``: a flush uploads every generation that holds a value as one
  object, its shard files concatenated in shard order, and records the
  segment — with its per-shard lengths, and its non-value bytes already
  counted dead — in the flush's own VersionEdit. The table that points into
  the segment and the segment commit together. Until then a pointer
  resolves from the local shard file; afterwards from the cloud object.
- Compaction reports the bytes of every dropped pointer; those dead-byte
  increments ride the *same* VersionEdit as the drop, so the MANIFEST's GC
  state is exact across crashes.
- ``run_gc``: segments whose records are all dead are unlinked (MANIFEST
  delete first, object delete second — a crash in between leaves an orphan
  that recovery collects); segments past :data:`GC_DEAD_RATIO` get their
  live residue re-put through the front door, which logs the values again
  and lets compaction retire the old copies.
- ``recover``: a segment object the MANIFEST does not know is deleted. Its
  flush never committed, so its values are still in the local xWAL, which
  replay has just read; the recovery flush seals them again.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING, Protocol

from repro.errors import CorruptionError, NotFoundError
from repro.lsm.blob import BlobPointer, decode_blob_record, maybe_pointer
from repro.lsm.format import blob_file_name, parse_file_name, xlog_file_name
from repro.lsm.options import Options
from repro.lsm.version import VersionEdit, VersionSet
from repro.lsm.wal import read_shard, shard_of
from repro.sim.failure import crash_points
from repro.storage.env import CLOUD, HybridEnv
from repro.util.encoding import decode_fixed32

if TYPE_CHECKING:
    from repro.mash.pcache import PersistentCache

# Modelled CPU cost of decoding one blob record on resolve (framing + CRC).
_DECODE_BASE_COST = 1e-6
_DECODE_COST_PER_BYTE = 2e-9

GC_DEAD_RATIO = 0.5
"""Rewrite a sealed segment's live residue once compaction-dropped bytes
reach this fraction of the segment; 1.0 = only reclaim segments that are
entirely dead."""


def segment_blobs(
    data: bytes, number: int, shard_lengths: tuple[int, ...]
) -> Iterator[tuple[bytes, BlobPointer, bytes]]:
    """``(key, pointer, blob record)`` of every value logged in a sealed
    segment: generation ``number``'s shard files, concatenated in shard
    order, ``shard_lengths`` bytes each."""
    base = 0
    for length in shard_lengths:
        part = data[base : base + length]
        base += length
        ops, _blob_bytes, _torn = read_shard(part, number)
        for _seq, _value_type, key, value in ops:
            # A raw value is never pointer-shaped in a separated store's log.
            pointer = maybe_pointer(value)
            if pointer is not None:
                yield key, pointer, part[pointer.offset : pointer.offset + pointer.length]


class BlobHost(Protocol):
    """The slice of :class:`repro.lsm.db.DB` the garbage collector needs."""

    def put(self, key: bytes, value: bytes, *, sync: bool = True) -> None: ...

    def stored_value(self, key: bytes) -> bytes | None: ...

    def drop_blob_segment(self, number: int) -> None: ...


class BlobLog:
    """The value half of the xWAL for one DB (or one shard): which values
    divert, their seal into cloud segments, resolve, and GC."""

    def __init__(
        self,
        env: HybridEnv,
        prefix: str,
        versions: VersionSet,
        options: Options,
        num_shards: int,
        *,
        pcache: "PersistentCache | None" = None,
    ) -> None:
        self.env = env
        self.prefix = prefix
        self.versions = versions
        self.options = options
        self.num_shards = num_shards
        """The xWAL's shard count: which local shard file holds a key's
        records before their generation is sealed."""
        self.pcache = pcache
        self.unsealed: dict[int, int] = {}
        """xWAL generations holding values and not yet sealed: number ->
        bytes of their blob records."""
        self._in_gc = False
        self._rewritten: set[int] = set()
        # Counters (surfaced via store stats / E23).
        self.bytes_diverted = 0
        self.records_diverted = 0
        self.bytes_reclaimed = 0
        self.segments_sealed = 0
        self.segments_deleted = 0
        self.gc_rewrites = 0
        self.resolves = 0
        self.resolve_pcache_hits = 0

    # -- write path -----------------------------------------------------------

    def should_divert(self, value: bytes) -> bool:
        if maybe_pointer(value) is not None:
            # A raw value that happens to be pointer-shaped must be diverted
            # regardless of size, so the read path can trust the magic.
            return True
        threshold = self.options.blob_value_threshold
        return threshold > 0 and len(value) >= threshold

    def logged(self, number: int, records: int, nbytes: int) -> None:
        """The xWAL logged ``records`` blob records, ``nbytes`` bytes in
        all, into generation ``number``."""
        self.unsealed[number] = self.unsealed.get(number, 0) + nbytes
        self.records_diverted += records
        self.bytes_diverted += nbytes

    # -- sealing --------------------------------------------------------------

    def seal(self, edit: VersionEdit) -> None:
        """Upload each generation a flush is about to retire that holds a
        value, as one object, and record it in the flush's ``edit``.

        A generation the MANIFEST's log number has passed was sealed by an
        earlier flush. Sealing again after a failed flush overwrites the
        object it may have left with the same bytes and more.
        """
        self.unsealed = {
            number: nbytes
            for number, nbytes in self.unsealed.items()
            if number >= self.versions.log_number
        }
        for number, nbytes in sorted(self.unsealed.items()):
            # A crash drops a shard file no sync ever reached.
            logs = [xlog_file_name(self.prefix, number, shard) for shard in range(self.num_shards)]
            parts = [
                self.env.local.read_file(log) if self.env.local.file_exists(log) else b""
                for log in logs
            ]
            data = b"".join(parts)
            name = blob_file_name(self.prefix, number)
            self.env.cloud.store.put(name, data)
            self.env.note_tier(name, CLOUD)
            edit.set_blob_segment(
                number, len(data), len(data) - nbytes, tuple(len(part) for part in parts)
            )
            self.segments_sealed += 1

    # -- read path ------------------------------------------------------------

    def resolve(self, pointer: BlobPointer, key: bytes) -> bytes:
        """Fetch and validate the value ``key``'s pointer references."""
        shards = self.versions.blob_shards.get(pointer.segment)
        if shards is None:
            # Not sealed yet: the record is in the key's local shard file.
            name = xlog_file_name(
                self.prefix, pointer.segment, shard_of(key, self.num_shards)
            )
            offset = pointer.offset
        else:
            name = blob_file_name(self.prefix, pointer.segment)
            offset = sum(shards[: shard_of(key, len(shards))]) + pointer.offset
        raw: bytes | None = None
        tracer = self.env.clock.tracer
        if self.pcache is not None:
            raw = self.pcache.get_data(name, offset)
        if raw is not None:
            self.resolve_pcache_hits += 1
            if tracer is not None:
                tracer.event("blob_pcache_hit")
        else:
            try:
                file = self.env.new_random_access_file(name)
                raw = file.read(offset, pointer.length)
            except NotFoundError as exc:
                raise CorruptionError(
                    f"dangling blob pointer: segment {pointer.segment} missing"
                ) from exc
            from_cloud = self.env.tier_of(name) == CLOUD
            if tracer is not None:
                tracer.event("blob_cloud_get" if from_cloud else "blob_local_read")
            if from_cloud and self.pcache is not None:
                self.pcache.put_data(name, offset, raw)
        if len(raw) != pointer.length:
            raise CorruptionError(
                f"blob record short read: {len(raw)} != {pointer.length}"
            )
        record = decode_blob_record(raw)
        cost = _DECODE_BASE_COST + _DECODE_COST_PER_BYTE * len(raw)
        self.env.clock.advance(cost, "cpu")
        if decode_fixed32(raw, 4) != pointer.record_crc:
            raise CorruptionError("blob record checksum mismatch")
        if record.key != key:
            raise CorruptionError(
                f"blob pointer key mismatch: {record.key!r} != {key!r}"
            )
        self.resolves += 1
        return record.value

    # -- garbage collection ---------------------------------------------------

    def fold_dead_into_edit(self, drops: dict[int, int], edit: VersionEdit) -> None:
        """Fold compaction-dropped pointer bytes into the compaction's own
        VersionEdit so the dead counts commit atomically with the drop."""
        for number in sorted(drops):
            state = self.versions.blob_segments.get(number)
            if state is None:
                continue
            total, dead = state
            edit.set_blob_segment(
                number,
                total,
                min(total, dead + drops[number]),
                self.versions.blob_shards[number],
            )

    def run_gc(self, host: BlobHost) -> None:
        """Reclaim dead segments; rewrite live residue of mostly-dead ones."""
        if self._in_gc:
            return
        self._in_gc = True
        try:
            dead_segments = sorted(
                number
                for number, (total, dead) in self.versions.blob_segments.items()
                if dead >= total
            )
            for number in dead_segments:
                total, _dead = self.versions.blob_segments[number]
                edit = VersionEdit()
                edit.delete_blob_segment(number)
                self.versions.log_and_apply(edit)
                # Leave-behind: MANIFEST no longer knows the segment but the
                # object still exists — recovery collects the orphan.
                crash_points.reach("bloblog.gc_before_segment_delete")
                # crash-idempotent: the MANIFEST already forgot the segment;
                # recovery's orphan sweep redoes a lost delete.
                host.drop_blob_segment(number)
                self._rewritten.discard(number)
                self.bytes_reclaimed += total
                self.segments_deleted += 1
            # Every fully-dead segment is gone by now, so a ratio of 1.0
            # selects nothing.
            candidates = sorted(
                number
                for number, (total, dead) in self.versions.blob_segments.items()
                if number not in self._rewritten
                and total > 0
                and dead / total >= GC_DEAD_RATIO
            )
            for number in candidates:
                self._rewrite_segment(number, host)
        finally:
            self._in_gc = False

    def _rewrite_segment(self, number: int, host: BlobHost) -> None:
        """Re-put the live residue of a mostly-dead segment.

        The re-put travels the normal write path, so the values are logged
        again in the current generation; the old records die once
        compaction drops their (now shadowed) pointers, and the segment is
        unlinked by a later fully-dead pass. Snapshot readers keep working
        throughout because the old segment stays until every pointer to it
        is provably dropped.
        """
        data = self.env.read_file(blob_file_name(self.prefix, number))
        live: list[tuple[bytes, bytes]] = []
        for key, pointer, record in segment_blobs(data, number, self.versions.blob_shards[number]):
            current = host.stored_value(key)
            if current is not None and maybe_pointer(current) == pointer:
                live.append((key, decode_blob_record(record).value))
        self._rewritten.add(number)
        self.gc_rewrites += 1
        for key, value in live:
            host.put(key, value, sync=True)

    def delete_segment_file(self, number: int) -> None:
        """Physically unlink a segment (both tiers, idempotent)."""
        name = blob_file_name(self.prefix, number)
        try:
            self.env.delete_file(name)
        except NotFoundError:
            pass
        if self.pcache is not None:
            self.pcache.drop_file(name)
        self.versions.blob_shards.pop(number, None)

    # -- recovery -------------------------------------------------------------

    def recover(self, listing: list[str]) -> None:
        """Delete every segment object the recovered MANIFEST does not know:
        a flush uploaded it and crashed before its commit, so its values are
        still in the local xWAL, or GC forgot it and crashed before the
        delete."""
        for name in sorted(listing):
            parsed = parse_file_name(self.prefix, name)
            if parsed is None or parsed[0] != "blob":
                continue
            if parsed[1] not in self.versions.blob_segments:
                self.delete_segment_file(parsed[1])

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, int]:
        segments = self.versions.blob_segments
        return {
            "live_segments": len(segments),
            "live_bytes": sum(total for total, _dead in segments.values()),
            "dead_bytes": sum(dead for _total, dead in segments.values()),
            "bytes_diverted": self.bytes_diverted,
            "records_diverted": self.records_diverted,
            "bytes_reclaimed": self.bytes_reclaimed,
            "segments_sealed": self.segments_sealed,
            "segments_deleted": self.segments_deleted,
            "gc_rewrites": self.gc_rewrites,
            "resolves": self.resolves,
            "resolve_pcache_hits": self.resolve_pcache_hits,
        }

