"""Cloud-resident blob value log: WAL-time key-value separation.

Values at least ``Options.blob_value_threshold`` bytes long never enter the
memtable: :meth:`BlobLog.divert_batch` rewrites the write batch *before* the
WAL/xWAL append, appending each large value to the active blob segment and
substituting a fixed 32-byte :class:`~repro.lsm.blob.BlobPointer`. Flushes
and compactions then move pointers, not payloads — the WiscKey/BVLSM trade
that keeps cloud PUT bytes and write amplification proportional to keys,
not values.

Lifecycle and crash protocol:

- The *active* segment is a local append-only file. Blob appends are synced
  before any WAL sync that could make a referencing record durable — both
  the sync of the diverting batch itself and a later ``sync=True`` batch
  that diverts nothing (:meth:`BlobLog.sync_active`) — so a synced (acked)
  pointer always has a durable record behind it; an unsynced tail is torn
  exactly like a torn WAL tail and truncated at recovery.
- ``seal``: the active segment is uploaded to the cloud in one PUT,
  recorded in the MANIFEST as a ``(number, total, dead)`` blob-segment
  edit, then the local copy is dropped. Flushes seal first, so SSTables
  only ever reference sealed, MANIFEST-recorded segments; the active
  segment is referenced only by the WAL/memtable.
- Compaction reports the bytes of every dropped pointer; those dead-byte
  increments ride the *same* VersionEdit as the drop, so the MANIFEST's GC
  state is exact across crashes.
- ``run_gc``: segments whose records are all dead are unlinked (MANIFEST
  delete first, object delete second — a crash in between leaves an orphan
  that recovery collects); segments past :data:`GC_DEAD_RATIO` get their
  live residue re-put through the front door, which re-diverts the values
  into the current active segment and lets compaction retire the old copies.
- ``recover``: while the log replays, a record whose pointer ends past the
  clean prefix of a MANIFEST-unknown segment is where its xWAL shard's
  torn tail starts (:meth:`BlobLog.record_is_whole`): the write was never
  acknowledged, and the record and the rest of the shard are dropped.
  After replay, MANIFEST-unknown segment files with no memtable references
  are abandoned uploads or GC orphans and are deleted; a referenced one is
  the crashed active segment — its clean record prefix is re-sealed with
  the unreferenced remainder pre-counted dead. The re-seal is itself
  crash-idempotent: the local copy is truncated in place (atomic, synced)
  and kept until the MANIFEST edit commits, so a crash anywhere inside the
  re-seal leaves a durable copy for the next recovery to adopt again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.errors import CorruptionError, NotFoundError
from repro.lsm.blob import (
    BlobPointer,
    decode_blob_record,
    encode_blob_record,
    encode_pointer,
    iter_blob_records,
    maybe_pointer,
    valid_prefix_length,
)
from repro.lsm.format import blob_file_name, parse_file_name
from repro.lsm.options import Options
from repro.lsm.version import VersionEdit, VersionSet
from repro.lsm.write_batch import WriteBatch
from repro.sim.failure import crash_points
from repro.storage.env import CLOUD, HybridEnv, WritableFile
from repro.storage.local import LocalDevice
from repro.util.crc import masked_crc32
from repro.util.encoding import TYPE_VALUE, Entry

if TYPE_CHECKING:
    from repro.mash.pcache import PersistentCache

# Modelled CPU cost of decoding one blob record on resolve (framing + CRC).
_DECODE_BASE_COST = 1e-6
_DECODE_COST_PER_BYTE = 2e-9

GC_DEAD_RATIO = 0.5
"""Rewrite a sealed segment's live residue once compaction-dropped bytes
reach this fraction of the segment; 1.0 = only reclaim segments that are
entirely dead."""


class BlobHost(Protocol):
    """The slice of :class:`repro.lsm.db.DB` the garbage collector needs."""

    def put(self, key: bytes, value: bytes, *, sync: bool = True) -> None: ...

    def stored_value(self, key: bytes) -> bytes | None: ...

    def drop_blob_segment(self, number: int) -> None: ...


class BlobLog:
    """Append-only, cloud-resident value log for one DB (or one shard)."""

    def __init__(
        self,
        env: HybridEnv,
        prefix: str,
        versions: VersionSet,
        options: Options,
        device: LocalDevice,
        *,
        pcache: "PersistentCache | None" = None,
    ) -> None:
        self.env = env
        self.prefix = prefix
        self.versions = versions
        self.options = options
        self.device = device
        self.pcache = pcache
        self.active_number: int | None = None
        self.active_file: WritableFile | None = None
        self.active_offset = 0
        self.active_unsynced = False
        self._in_gc = False
        self._rewritten: set[int] = set()
        self._unsealed: dict[int, tuple[bytes, int]] = {}
        """Recovery's reads of MANIFEST-unknown segments: number ->
        ``(bytes, clean prefix length)``."""
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

    def divert_batch(self, batch: WriteBatch, *, sync: bool) -> WriteBatch:
        """Rewrite ``batch`` substituting pointers for large values.

        Must be called after the batch's sequence is assigned and before the
        WAL append: the returned batch is what the WAL, memtable, and every
        downstream structure see.
        """
        if not any(
            op.value_type == TYPE_VALUE and self.should_divert(op.value)
            for op in batch
        ):
            if sync:
                # A sync=True WAL append makes *every* earlier unsynced WAL
                # record durable, including pointers from prior sync=False
                # batches — their blob bytes must become durable first.
                self.sync_active()
            return batch
        out = WriteBatch()
        out.sequence = batch.sequence
        sequence = batch.sequence
        for op in batch:
            if op.value_type == TYPE_VALUE and self.should_divert(op.value):
                out.put(op.key, self._append(sequence, op.key, op.value, sync=sync))
            elif op.value_type == TYPE_VALUE:
                out.put(op.key, op.value)
            else:
                out.delete(op.key)
            sequence += 1
        return out

    def _append(self, sequence: int, key: bytes, value: bytes, *, sync: bool) -> bytes:
        if self.active_file is None:
            if self.active_number is not None:
                self.seal_active()  # a seal a cloud error interrupted
            self.active_number = self.versions.new_file_number()
            name = blob_file_name(self.prefix, self.active_number)
            self.active_file = self.env.new_writable_file(name)
            self.active_offset = 0
        record = encode_blob_record(sequence, key, value)
        offset = self.active_offset
        self.active_file.append(record)
        # Leave-behind: record appended but not yet synced; the WAL pointer
        # that would reference it is never written.
        crash_points.reach("bloblog.append")
        if sync:
            self.active_file.sync()
            self.active_unsynced = False
        else:
            self.active_unsynced = True
        self.active_offset += len(record)
        self.bytes_diverted += len(record)
        self.records_diverted += 1
        assert self.active_number is not None
        pointer = BlobPointer(
            segment=self.active_number,
            offset=offset,
            length=len(record),
            value_crc=masked_crc32(value),
        )
        if self.active_offset >= self.options.blob_segment_bytes:
            self.seal_active()
        return encode_pointer(pointer)

    def sync_active(self) -> None:
        """Make the active segment durable ahead of a WAL sync.

        A sync=False diverted put leaves blob bytes in the device's unsynced
        tail; the WAL record pointing at them is unsynced too, so the pair is
        consistently volatile. But the next sync=True WAL append — even one
        that diverts nothing — syncs the whole WAL file and would durably
        persist that pointer, so the blob bytes must be synced first.
        """
        if self.active_unsynced and self.active_file is not None:
            self.active_file.sync()
        self.active_unsynced = False

    # -- sealing --------------------------------------------------------------

    def on_flush_begin(self) -> None:
        """Seal before a memtable flush so the resulting SSTable only
        references durable, MANIFEST-recorded segments."""
        if self.active_number is not None and self.active_offset > 0:
            self.seal_active()

    def seal_active(self) -> None:
        assert self.active_number is not None
        number = self.active_number
        name = blob_file_name(self.prefix, number)
        if self.active_file is not None:
            self.active_file.sync()
            self.active_file.close()
            self.active_file = None
            self.active_unsynced = False
        data = self.env.local.read_file(name)
        # A cloud error here leaves the closed segment active, so the next
        # seal retries it before the next append or flush.
        self._upload_and_record(number, name, data, 0)
        self.active_number = None
        self.active_offset = 0
        self.segments_sealed += 1

    def _upload_and_record(self, number: int, name: str, data: bytes, dead: int) -> None:
        # crash-idempotent: keyed by name; a recovery re-seal overwrites
        # the same object with identical bytes.
        self.env.cloud.store.put(name, data)
        self.env.note_tier(name, CLOUD)
        # Leave-behind: segment object visible in the cloud but absent from
        # the MANIFEST; recovery must adopt or discard it by reference count.
        crash_points.reach("bloblog.seal_before_manifest")
        edit = VersionEdit()
        edit.set_blob_segment(number, len(data), dead)
        self.versions.log_and_apply(edit)
        if self.env.local.file_exists(name):
            self.env.local.delete_file(name)

    # -- read path ------------------------------------------------------------

    def resolve(self, pointer: BlobPointer, expected_key: bytes | None = None) -> bytes:
        """Fetch and validate the value a pointer references."""
        name = blob_file_name(self.prefix, pointer.segment)
        raw: bytes | None = None
        tracer = self.device.tracer
        if self.pcache is not None:
            raw = self.pcache.get_data(name, pointer.offset)
        if raw is not None:
            self.resolve_pcache_hits += 1
            if tracer is not None:
                tracer.event("blob_pcache_hit")
        else:
            try:
                file = self.env.new_random_access_file(name)
                raw = file.read(pointer.offset, pointer.length)
            except NotFoundError as exc:
                raise CorruptionError(
                    f"dangling blob pointer: segment {pointer.segment} missing"
                ) from exc
            from_cloud = self.env.tier_of(name) == CLOUD
            if tracer is not None:
                tracer.event("blob_cloud_get" if from_cloud else "blob_local_read")
            if from_cloud and self.pcache is not None:
                self.pcache.put_data(name, pointer.offset, raw)
        if len(raw) != pointer.length:
            raise CorruptionError(
                f"blob record short read: {len(raw)} != {pointer.length}"
            )
        record = decode_blob_record(raw)
        cost = _DECODE_BASE_COST + _DECODE_COST_PER_BYTE * len(raw)
        self.device.clock.advance(cost)
        if tracer is not None:
            tracer.charge("cpu", cost)
        if masked_crc32(record.value) != pointer.value_crc:
            raise CorruptionError("blob value checksum mismatch")
        if expected_key is not None and record.key != expected_key:
            raise CorruptionError(
                f"blob pointer key mismatch: {record.key!r} != {expected_key!r}"
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
            edit.set_blob_segment(number, total, min(total, dead + drops[number]))

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

        The re-put travels the normal write path, so the values are diverted
        again into the current active segment; the old records die once
        compaction drops their (now shadowed) pointers, and the segment is
        unlinked by a later fully-dead pass. Snapshot readers keep working
        throughout because the old segment stays until every pointer to it
        is provably dropped.
        """
        name = blob_file_name(self.prefix, number)
        data = self.env.read_file(name)
        live: list[tuple[bytes, bytes]] = []
        for offset, record in iter_blob_records(data):
            current = host.stored_value(record.key)
            if current is None:
                continue
            pointer = maybe_pointer(current)
            if (
                pointer is None
                or pointer.segment != number
                or pointer.offset != offset
            ):
                continue
            live.append((record.key, record.value))
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

    # -- recovery -------------------------------------------------------------

    def record_is_whole(self, ops: list[tuple[int, int, bytes, bytes]]) -> bool:
        """False if a pointer in one replayed xWAL record ends past the clean
        prefix of its MANIFEST-unknown segment.

        A synced pointer always has a synced blob record behind it, so such
        a record was written ``sync=False`` and its blob bytes were torn:
        the record is where its shard's torn tail starts. A segment that is
        not on disk at all has a clean prefix of zero.
        """
        known = self.versions.blob_segments
        for _sequence, value_type, _key, value in ops:
            pointer = maybe_pointer(value) if value_type == TYPE_VALUE else None
            if pointer is None or pointer.segment in known:
                continue
            unsealed = self._unsealed.get(pointer.segment)
            if unsealed is None:
                name = blob_file_name(self.prefix, pointer.segment)
                data = b""
                if self.env.file_exists(name):
                    data = self.env.read_file(name)
                unsealed = (data, valid_prefix_length(data))
                self._unsealed[pointer.segment] = unsealed
            if pointer.offset + pointer.length > unsealed[1]:
                return False
        return True

    def recover(self, listing: list[str], entries: list[Entry]) -> None:
        """Reconcile on-disk segment files with the recovered MANIFEST.

        ``entries`` are the replayed memtable's rows; blob pointers in
        them are the only live references a
        MANIFEST-unknown segment can have. MANIFEST-known segments are kept
        (a leftover local copy of an uploaded segment is dropped); unknown
        ones are deleted when unreferenced, else truncated to their clean
        record prefix and immediately re-sealed with the unreferenced
        remainder counted dead.
        """
        references = memtable_blob_references(entries)
        known = self.versions.blob_segments
        for name in sorted(listing):
            parsed = parse_file_name(self.prefix, name)
            if parsed is None or parsed[0] != "blob":
                continue
            number = parsed[1]
            if number in known:
                if self.env.cloud.file_exists(name) and self.env.local.file_exists(name):
                    # Crash between upload and local delete: cloud copy is
                    # the MANIFEST-recorded one; drop the local shadow.
                    self.env.local.delete_file(name)
                    self.env.note_tier(name, CLOUD)
                continue
            wanted = references.get(number, set())
            if not wanted:
                self.delete_segment_file(number)
                continue
            self._adopt_segment(number, name, wanted)
        self._unsealed.clear()

    def _adopt_segment(
        self, number: int, name: str, wanted: set[tuple[int, int]]
    ) -> None:
        # Replay read the segment and kept only records that fit its clean
        # prefix (record_is_whole).
        data, valid_len = self._unsealed.pop(number)
        assert max(offset + length for offset, length in wanted) <= valid_len
        referenced = sum(length for _offset, length in wanted)
        # Keep a durable copy until the MANIFEST edit commits: a crash inside
        # the re-seal below must leave the next recovery something to adopt.
        # Truncate the local file in place (write_file is atomic and synced)
        # rather than deleting it; the upload simply overwrites any partially
        # visible cloud object from an interrupted earlier seal, and
        # _upload_and_record drops the local copy only after the MANIFEST
        # records the segment.
        if valid_len < len(data) or not self.env.local.file_exists(name):
            self.env.local.write_file(name, data[:valid_len])
        self._upload_and_record(number, name, data[:valid_len], valid_len - referenced)
        self.segments_sealed += 1

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, int]:
        segments = self.versions.blob_segments
        return {
            "live_segments": len(segments),
            "live_bytes": sum(total for total, _dead in segments.values()),
            "dead_bytes": sum(dead for _total, dead in segments.values()),
            "active_bytes": self.active_offset,
            "bytes_diverted": self.bytes_diverted,
            "records_diverted": self.records_diverted,
            "bytes_reclaimed": self.bytes_reclaimed,
            "segments_sealed": self.segments_sealed,
            "segments_deleted": self.segments_deleted,
            "gc_rewrites": self.gc_rewrites,
            "resolves": self.resolves,
            "resolve_pcache_hits": self.resolve_pcache_hits,
        }


def memtable_blob_references(
    entries: list[Entry],
) -> dict[int, set[tuple[int, int]]]:
    """Harvest blob references from replayed memtable entries; only live
    values that parse as pointers count."""
    references: dict[int, set[tuple[int, int]]] = {}
    for _user_key, neg_trailer, value in entries:
        if -neg_trailer & 0xFF != TYPE_VALUE:
            continue
        pointer = maybe_pointer(value)
        if pointer is None:
            continue
        references.setdefault(pointer.segment, set()).add(
            (pointer.offset, pointer.length)
        )
    return references
