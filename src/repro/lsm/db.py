"""The LSM database: write path, read path, flush, compaction, recovery.

A single-process, deterministic engine with RocksDB's structure:

* a write hands its :class:`WriteBatch` to the log, the xWAL
  (:class:`~repro.lsm.wal.XWalWriter`, one shard unless ``xwal_config``
  says more), which encodes it once into its shard records; then it applies
  the batch to the memtable;
* a full memtable flushes to an L0 SSTable and rotates the log;
* compactions run *inline* whenever a level is over target (no background
  threads — determinism is a design goal of the reproduction; the simulated
  clock still accounts their I/O);
* reads consult memtable → immutable files via the current
  :class:`~repro.lsm.version.Version`;
* ``open`` on an existing DB replays MANIFEST then the live log generations,
  every shard of one in parallel.

Extension points used by :mod:`repro.mash`:

* the Env decides where every file lives (local/cloud/hybrid);
* ``stack_factory`` builds each table's block stack (persistent cache,
  how far a scan reads ahead — see :mod:`repro.lsm.block_cache`);
* ``listeners`` observe flushes, compactions, and file deletions;
* ``_open_blob_store`` gives the log a blob store to divert large values to.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable, Iterator
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ClosedError, InvalidArgumentError, RecoveryError
from repro.lsm.blob import maybe_pointer
from repro.lsm.block_cache import BlockPath, BlockStack, LRUBlockCache, ScanReads, StackFactory
from repro.lsm.compaction import (
    Compaction,
    CompactionEvent,
    CompactionJob,
    CompactionPicker,
    CompactionStats,
)
from repro.lsm.format import parse_file_name, table_file_name
from repro.lsm.iterator import merge_runs
from repro.lsm.memtable import GetResult, MemTable
from repro.lsm.options import NUM_LEVELS, Options
from repro.lsm.table_builder import TableBuilder, TableProperties
from repro.lsm.table_cache import TableCache
from repro.lsm.universal import UniversalCompactionPicker
from repro.lsm.version import FileMetaData, Version, VersionEdit, VersionSet
from repro.lsm.wal import XWalConfig, XWalReplayer, XWalWriter, shard_file_names
from repro.lsm.write_batch import WriteBatch
from repro.sim.failure import crash_points
from repro.storage.env import Env
from repro.util.encoding import TYPE_DELETION, Entry, SeekGoal, seek_goal

if TYPE_CHECKING:
    from repro.mash.bloblog import BlobLog


@dataclass(frozen=True)
class FlushEvent:
    """Posted after a memtable flush commits."""

    meta: FileMetaData
    properties: TableProperties
    level: int


@dataclass
class DBListeners:
    """Observer hooks for store variants (caches, placement)."""

    on_flush: list[Callable[[FlushEvent], None]] = field(default_factory=list)
    on_compaction: list[Callable[[CompactionEvent], None]] = field(default_factory=list)
    on_table_delete: list[Callable[[str], None]] = field(default_factory=list)
    on_version_change: list[Callable[[], None]] = field(default_factory=list)


class Snapshot:
    """A consistent read point; release via :meth:`DB.release_snapshot`."""

    __slots__ = ("sequence",)

    def __init__(self, sequence: int) -> None:
        self.sequence = sequence


class DB:
    """An LSM-tree key–value store over an :class:`Env`."""

    def __init__(
        self,
        env: Env,
        prefix: str,
        options: Options | None = None,
        *,
        stack_factory: StackFactory = BlockStack,
        event_sink: Callable[[str], None] | None = None,
        maintenance_hook: Callable[[], None] | None = None,
        listeners: DBListeners | None = None,
        xwal_config: XWalConfig | None = None,
    ) -> None:
        """Use :meth:`DB.open` instead of constructing directly. A store
        variant passes its ``listeners`` here, not after :meth:`open`
        returns: recovery already deletes orphaned tables and flushes the
        replayed log, and a hook wired later misses those events.
        ``xwal_config`` shapes the log (default: one shard, a serial WAL)."""
        self.env = env
        self.prefix = prefix
        self.options = options or Options()
        self.xwal_config = xwal_config or XWalConfig()
        self.listeners = listeners if listeners is not None else DBListeners()
        self.block_cache = (
            LRUBlockCache(self.options.block_cache_bytes)
            if self.options.block_cache_bytes > 0
            else None
        )
        self.block_path = BlockPath(self.block_cache, event_sink)
        """What every table's block stack shares: the DRAM cache, per-source
        hit counters, the bloom tally and ``event_sink`` — the tracer's
        ``event`` in a traced store, which then sees one event per block
        served and per bloom-probe outcome."""
        self.maintenance_hook = maintenance_hook
        """Optional deferral hook for write-triggered maintenance. When
        set, a write that fills the memtable calls this instead of running
        the flush (and any resulting compactions) inline, and the owner is
        responsible for calling :meth:`flush` afterwards. The serving
        layer (:mod:`repro.serve`) uses it to move flush/compaction off
        the triggering request's latency path and onto the shard's busy
        timeline, where it surfaces as queueing interference. Explicit
        :meth:`flush`/:meth:`compact_range` calls always run maintenance
        inline regardless of the hook."""
        self.bloom_stats = self.block_path.bloom
        """Store-wide bloom-probe outcomes (see :attr:`BlockPath.bloom`),
        exported through :meth:`metrics`."""
        self.table_cache = TableCache(
            env,
            prefix,
            self.options,
            path=self.block_path,
            stack_factory=stack_factory,
        )
        self.versions = VersionSet(env, prefix, self.options)
        self.memtable = MemTable()
        self._picker: CompactionPicker | UniversalCompactionPicker = (
            UniversalCompactionPicker(self.options)
            if self.options.compaction_style == "universal"
            else CompactionPicker(self.options)
        )
        self.compaction_stats = CompactionStats()
        self._snapshots: list[Snapshot] = []
        self._wal: XWalWriter | None = None
        self._wal_number = 0
        self._closed = False
        self.flush_count = 0
        self.orphans_purged = 0
        self.last_recovery_corrupt_shards = 0
        """Log shards the last recovery found torn (their tails dropped)."""
        self._pinned_versions: list = []
        self._deferred_deletes: set[int] = set()
        self._deferred_blob_deletes: set[int] = set()
        self.blob_store = self._open_blob_store()
        """Key-value separation backend (see :mod:`repro.mash.bloblog`);
        None in the base engine. Subclasses with a hybrid env override
        :meth:`_open_blob_store` to enable it."""

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        env: Env,
        prefix: str,
        options: Options | None = None,
        *,
        create_if_missing: bool = True,
        error_if_exists: bool = False,
        **subclass_kwargs: Any,
    ) -> "DB":
        """Open (recovering) or create a database under ``prefix``.

        Extra keyword arguments are forwarded to the (sub)class constructor
        (``stack_factory``, ``event_sink``, ``maintenance_hook``,
        ``listeners``, ``xwal_config``, ...).
        """
        db = cls(env, prefix, options, **subclass_kwargs)
        exists = env.file_exists(f"{prefix}CURRENT")
        if exists and error_if_exists:
            raise InvalidArgumentError(f"DB already exists at {prefix!r}")
        if exists:
            db._recover()
        else:
            if not create_if_missing:
                raise RecoveryError(f"DB missing at {prefix!r}")
            db.versions.create()
            if db.blob_store is not None:
                # Brand the store as separated from birth. Stores created
                # without the brand refuse to reopen with separation on:
                # a raw value stored verbatim could start with the pointer
                # magic and be misread as a pointer (see _recover).
                edit = VersionEdit()
                edit.blob_separation = True
                db.versions.log_and_apply(edit)
            db._rotate_wal()
        return db

    def close(self) -> None:
        if self._closed:
            return
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self.versions.close()
        self._closed = True

    def abandon(self) -> None:
        """Refuse every later call, touching no file: after a crash the
        files belong to the instance that recovers them."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("database is closed")

    def _open_blob_store(self) -> BlobLog | None:
        """Build the blob value log when key-value separation is enabled.

        The base engine has no cloud tier to seal segments into, so it
        never separates; :class:`repro.mash.store.MashDB` overrides this.
        """
        return None

    # -- the log --------------------------------------------------------------

    def _wal_file_names(self, number: int) -> list[str]:
        """Every shard file of log generation ``number``."""
        return shard_file_names(self.prefix, number, self.xwal_config.num_shards)

    def _replay_wal(self, number: int, names: list[str]) -> int:
        """Replay log generation ``number`` from its shard files ``names``
        into the memtable, every shard on a parallel branch of the clock;
        returns the highest sequence seen."""
        replayer = XWalReplayer(self.env, self.xwal_config)
        max_seq = 0
        for seq, value_type, key, value in replayer.replay(number, names):
            self.memtable.add(seq, value_type, key, value)
            max_seq = max(max_seq, seq)
        self.last_recovery_corrupt_shards += replayer.corrupt_shards
        if self.blob_store is not None and replayer.blob_bytes:
            # The recovery flush seals the values replay found.
            self.blob_store.unsealed[number] = replayer.blob_bytes
        return max_seq

    def _live_wal_files(self, listing: list[str]) -> dict[int, list[str]]:
        """The shard files in ``listing`` of each log generation at or past
        the manifest's log number, by generation in ascending order.

        The files on disk decide, not ``xwal_config.num_shards``: a store
        reopened with another shard count still replays, and then deletes,
        every shard its log was written to.
        """
        generations: dict[int, list[str]] = {}
        for name in sorted(listing):
            parsed = parse_file_name(self.prefix, name)
            if parsed and parsed[0] == "xlog" and parsed[1] >= self.versions.log_number:
                generations.setdefault(parsed[1], []).append(name)
        return dict(sorted(generations.items()))

    def _check_blob_shards(self, live_logs: dict[int, list[str]]) -> None:
        """Refuse a separated store whose live log holds a shard file past
        the configured count: its pointers and its seal find a key's shard
        by ``shard_of(key, num_shards)``, so they would miss those values."""
        for number, names in live_logs.items():
            extra = set(names).difference(self._wal_file_names(number))
            if extra:
                raise InvalidArgumentError(
                    f"log generation {number} has shard files {sorted(extra)} past "
                    f"xwal num_shards={self.xwal_config.num_shards}: a store that "
                    "separates values keeps the shard count it was written with"
                )

    def _rotate_wal(self) -> int:
        """Close the current WAL and start a fresh generation."""
        if self._wal is not None:
            self._wal.close()
        self._wal_number = self.versions.new_file_number()
        self._wal = XWalWriter(
            self.env, self.prefix, self._wal_number, self.xwal_config, blob=self.blob_store
        )
        return self._wal_number

    # -- recovery -------------------------------------------------------------

    def _recover(self) -> None:
        self.versions.recover()
        if self.blob_store is not None and not self.versions.blob_separation_enabled:
            raise InvalidArgumentError(
                "cannot enable key-value separation on a store created "
                "without it: a raw stored value starting with the pointer "
                "magic would be misread as a blob pointer"
            )
        # One directory listing serves both file-number bumping and WAL
        # discovery (a LIST is a full round trip on the cloud tier).
        listing = self.env.list_files(self.prefix)
        live_logs = self._live_wal_files(listing)
        if self.blob_store is not None:
            self._check_blob_shards(live_logs)
        # Bump past any file physically on disk (the live WAL's number was
        # allocated after the last manifest edit and never persisted).
        max_on_disk = 0
        for name in listing:
            parsed = parse_file_name(self.prefix, name)
            if parsed:
                max_on_disk = max(max_on_disk, parsed[1])
        self.versions.next_file_number = max(self.versions.next_file_number, max_on_disk + 1)
        self._purge_orphans(listing)
        replayed_max = 0
        for number, names in live_logs.items():
            replayed_max = max(replayed_max, self._replay_wal(number, names))
        self.versions.last_sequence = max(self.versions.last_sequence, replayed_max)
        if self.blob_store is not None:
            # Segments the MANIFEST does not know go; the flush below seals
            # the replayed values again.
            self.blob_store.recover(listing)
        # Memtable contents re-enter a fresh WAL generation via flush if big
        # enough, otherwise they ride along in the new log's lifetime.
        self._rotate_wal()
        if len(self.memtable) > 0:
            self._flush_memtable()
        for names in live_logs.values():
            for name in names:
                self.env.delete_file(name)

    def _purge_orphans(self, listing: list[str]) -> None:
        """Delete files a crash left behind but no version references.

        A crash between writing compaction/flush outputs and committing the
        manifest edit orphans those table files (on either tier); a crash
        between a manifest rewrite's CURRENT update and the old manifest's
        deletion orphans a manifest; a crash between a flush's manifest
        commit and the old log's deletion leaves stale WAL generations
        (already superseded by the flushed table). All are reclaimed here.
        """
        live = self.versions.current.live_file_numbers()
        for name in listing:
            parsed = parse_file_name(self.prefix, name)
            if parsed is None:
                continue
            kind, number = parsed
            doomed = (
                (kind == "table" and number not in live)
                or (kind == "manifest" and number != self.versions.manifest_number)
                or (kind == "xlog" and number < self.versions.log_number)
            )
            if doomed and self.env.file_exists(name):
                self.env.delete_file(name)
                self.orphans_purged += 1
                if kind == "table":
                    for hook in self.listeners.on_table_delete:
                        hook(name)

    def _maybe_rewrite_manifest(self) -> None:
        limit = self.options.max_manifest_file_size
        if limit and self.versions.manifest_bytes() > limit:
            self.versions.rewrite_manifest()

    # -- write path --------------------------------------------------------------

    def put(self, key: bytes, value: bytes, *, sync: bool = True) -> None:
        batch = WriteBatch()
        batch.put(key, value)
        self.write(batch, sync=sync)

    def delete(self, key: bytes, *, sync: bool = True) -> None:
        batch = WriteBatch()
        batch.delete(key)
        self.write(batch, sync=sync)

    def write(self, batch: WriteBatch, *, sync: bool = True) -> None:
        """Apply a batch atomically: WAL first, then memtable."""
        self._check_open()
        if len(batch) == 0:
            return
        batch.sequence = self.versions.last_sequence + 1
        assert self._wal is not None
        diverted = self._wal.add_batch(batch, sync=sync)
        if diverted is not None:
            # Key-value separation: the log holds the large values, and the
            # memtable and SSTables only ever see fixed-size pointers.
            batch = diverted
        seq = batch.sequence
        for op in batch:
            self.memtable.add(seq, op.value_type, op.key, op.value)
            seq += 1
        self.versions.last_sequence = seq - 1
        if self.memtable.approximate_memory_usage() >= self.options.write_buffer_size:
            if self.maintenance_hook is not None:
                self.maintenance_hook()
            else:
                self._flush_memtable()
                self._maybe_compact()

    # -- flush ----------------------------------------------------------------------

    def flush(self) -> None:
        """Force the memtable to an SSTable (no-op when empty)."""
        self._check_open()
        if len(self.memtable) > 0:
            self._flush_memtable()
            self._maybe_compact()

    def _flush_memtable(self) -> None:
        edit = VersionEdit()
        if self.blob_store is not None:
            # Upload first: the values the memtable points at commit as blob
            # segments in this flush's edit, with the table pointing at them.
            self.blob_store.seal(edit)
        number = self.versions.new_file_number()
        name = table_file_name(self.prefix, number)
        builder = TableBuilder(self.options, self.env.new_writable_file(name))
        builder.fill(self.memtable)
        props = builder.finish()
        meta = FileMetaData(number, props.file_size, props.smallest_key, props.largest_key)
        old_wal_number = self._wal_number
        new_wal_number = self._rotate_wal()
        crash_points.reach("flush.before_manifest")
        edit.log_number = new_wal_number
        edit.last_sequence = self.versions.last_sequence
        edit.add_file(0, meta)
        self.versions.log_and_apply(edit)
        crash_points.reach("flush.after_manifest")
        self.memtable = MemTable()
        self.flush_count += 1
        for name_ in self._wal_file_names(old_wal_number):
            if self.env.file_exists(name_):
                self.env.delete_file(name_)
        self._maybe_rewrite_manifest()
        event = FlushEvent(meta=meta, properties=props, level=0)
        for hook in self.listeners.on_flush:
            hook(event)
        self._notify_version_change()

    # -- version pinning (live iterators vs compaction) -------------------

    def _pin_version(self) -> Version:
        """Pin the current version so its files survive compactions while a
        live iterator still reads them (deletion is deferred to unpin)."""
        version = self.versions.current
        self._pinned_versions.append(version)
        return version

    def _unpin_version(self, version: Version) -> None:
        self._pinned_versions.remove(version)
        self._purge_deferred_deletes()

    def _protected_file_numbers(self) -> set[int]:
        protected = self.versions.current.live_file_numbers()
        for version in self._pinned_versions:
            protected |= version.live_file_numbers()
        return protected

    def _delete_table_file(self, number: int) -> None:
        """Physically remove a table and invalidate every cache layer."""
        name = table_file_name(self.prefix, number)
        if self.env.file_exists(name):
            self.env.delete_file(name)
        self.table_cache.evict(number)
        if self.block_cache is not None:
            self.block_cache.evict_file(name)
        for hook in self.listeners.on_table_delete:
            hook(name)

    def _purge_deferred_deletes(self) -> None:
        if self._deferred_deletes:
            protected = self._protected_file_numbers()
            for number in sorted(self._deferred_deletes - protected):
                self._deferred_deletes.discard(number)
                self._delete_table_file(number)
        if self.blob_store is not None and not self._pinned_versions:
            for number in sorted(self._deferred_blob_deletes):
                self._deferred_blob_deletes.discard(number)
                self.blob_store.delete_segment_file(number)

    def drop_blob_segment(self, number: int) -> None:
        """Physically unlink a GC'd blob segment.

        Deferred while any version is pinned: a live iterator may still hold
        an old pointer into the segment and must be able to resolve it (the
        MANIFEST record is already gone either way; a crash before the
        physical delete leaves an orphan that recovery collects).
        """
        if self._pinned_versions:
            self._deferred_blob_deletes.add(number)
            return
        self.blob_store.delete_segment_file(number)

    def _smallest_snapshot(self) -> int:
        if self._snapshots:
            return min(snap.sequence for snap in self._snapshots)
        return self.versions.last_sequence

    def _maybe_compact(self) -> None:
        """Run compactions until every level is within target."""
        while True:
            compaction = self._picker.pick(self.versions.current)
            if compaction is None:
                break
            self._run_compaction(compaction)
        if self.blob_store is not None:
            self.blob_store.run_gc(self)

    def compact_range(self, begin: bytes | None = None, end: bytes | None = None) -> None:
        """Manually compact every level overlapping [begin, end].

        Forces real rewrites (no trivial moves), and finishes with an
        in-place rewrite of the bottommost level holding data in the range
        — RocksDB's ``bottommost_level_compaction`` — so tombstones and
        compaction-filtered entries are fully reclaimed. A universal tree
        merges every run into its bottom level instead, whatever the range
        (see :meth:`UniversalCompactionPicker.manual_compaction`).
        """
        self._check_open()
        self.flush()
        if isinstance(self._picker, UniversalCompactionPicker):
            compaction = self._picker.manual_compaction(self.versions.current)
            if compaction is not None:
                self._run_compaction(compaction)
        else:
            for level in range(NUM_LEVELS - 1):
                inputs = self.versions.current.overlapping_files(level, begin, end)
                if not inputs:
                    continue
                lo = min(f.smallest_user_key for f in inputs)
                hi = max(f.largest_user_key for f in inputs)
                overlaps = self.versions.current.overlapping_files(level + 1, lo, hi)
                self._run_compaction(
                    Compaction(level, inputs, overlaps, score=1.0, force_rewrite=True)
                )
            # Bottommost pass: rewrite the deepest level with data in the range.
            for level in range(NUM_LEVELS - 1, 0, -1):
                inputs = self.versions.current.overlapping_files(level, begin, end)
                if inputs:
                    self._run_compaction(
                        Compaction(
                            level,
                            inputs,
                            [],
                            score=1.0,
                            output_level_override=level,
                            force_rewrite=True,
                        )
                    )
                    break
        if self.blob_store is not None:
            self.blob_store.run_gc(self)

    def _run_compaction(self, compaction: Compaction) -> None:
        job = CompactionJob(
            self.env,
            self.prefix,
            self.options,
            self.table_cache,
            self.versions.new_file_number,
            stats=self.compaction_stats,
        )

        def listener(event: CompactionEvent) -> None:
            for hook in self.listeners.on_compaction:
                hook(event)

        blob_drops: dict[int, int] | None = (
            {} if self.blob_store is not None else None
        )
        edit = job.run(
            compaction,
            self.versions.current,
            smallest_snapshot=self._smallest_snapshot(),
            newest_snapshot=max((snap.sequence for snap in self._snapshots), default=0),
            listener=listener,
            blob_drops=blob_drops,
        )
        if blob_drops:
            # Dead-byte increments commit in the same edit as the drops, so
            # the MANIFEST's GC state is exact across crashes.
            self.blob_store.fold_dead_into_edit(blob_drops, edit)
        crash_points.reach("compaction.after_outputs")
        self.versions.log_and_apply(edit)
        crash_points.reach("compaction.before_input_delete")
        # Physically delete replaced inputs (trivial moves keep their file;
        # files still referenced by a pinned version — a live iterator —
        # are deferred until the pin is released).
        protected = self._protected_file_numbers()
        live = self.versions.current.live_file_numbers()
        for _, number in edit.deleted_files:
            if number in live:
                continue
            if number in protected:
                self._deferred_deletes.add(number)
                continue
            self._delete_table_file(number)
        self._maybe_rewrite_manifest()
        self._notify_version_change()

    def _notify_version_change(self) -> None:
        for hook in self.listeners.on_version_change:
            hook()

    # -- read path ------------------------------------------------------------------------

    def get(self, key: bytes, *, snapshot: Snapshot | None = None) -> bytes | None:
        """Point lookup; returns None when absent or deleted."""
        self._check_open()
        sequence = snapshot.sequence if snapshot else self.versions.last_sequence
        value = self._get_at(key, sequence)
        return self._resolve_value(key, value)

    def stored_value(self, key: bytes) -> bytes | None:
        """The newest raw stored value (blob pointers left unresolved).

        The blob-log GC uses this to check whether a segment record is still
        the live version of its key without paying a resolution round trip.
        """
        self._check_open()
        return self._get_at(key, self.versions.last_sequence)

    def _get_at(self, key: bytes, sequence: int) -> bytes | None:
        result = self.memtable.get(key, sequence)
        if result.state == GetResult.FOUND:
            return result.value
        if result.state == GetResult.DELETED:
            return None
        goal = seek_goal(key, sequence)
        for _level, meta in self.versions.current.files_for_user_key(key):
            entry = self.table_cache.get_reader(meta.number).get(goal)
            if entry is None or entry[0] != key:
                continue
            if -entry[1] & 0xFF == TYPE_DELETION:
                return None
            return entry[2]
        return None

    def _resolve_value(self, key: bytes, value: bytes | None) -> bytes | None:
        if value is None or self.blob_store is None:
            return value
        pointer = maybe_pointer(value)
        if pointer is None:
            return value
        return self.blob_store.resolve(pointer, key)

    def multi_get(
        self, keys: list[bytes], *, snapshot: Snapshot | None = None
    ) -> dict[bytes, bytes | None]:
        """Batched point lookups, served one after another here;
        :class:`repro.mash.store.MashDB` overlaps them in waves."""
        return {key: self.get(key, snapshot=snapshot) for key in keys}

    def scan(
        self,
        begin: bytes | None = None,
        end: bytes | None = None,
        limit: int | None = None,
        *,
        snapshot: Snapshot | None = None,
    ) -> Generator[tuple[bytes, bytes], None, None]:
        """Ordered iteration over user keys in [begin, end), at most
        ``limit`` rows (None: no limit).

        The version is *pinned* for the iterator's lifetime: compactions
        that run while the caller consumes the scan defer deleting the
        pinned files, so live iterators are never broken.

        Every source is seeked to ``begin`` and yields sorted lists (the
        memtable's rows; a table's, one list per block); :func:`merge_runs`
        merges them a run at a time, and one loop over each run keeps the
        newest entry per user key visible at the snapshot, drops
        tombstones, stops at the first live row at or past ``end``,
        resolves blob pointers and counts ``limit`` down. Every table read
        goes through one :class:`~repro.lsm.block_cache.ScanReads`, which
        knows ``end`` and the rows the scan may still yield, so a miss on a
        cloud table reads no further than the scan can still need. With
        ``Options.scan_prefetch_depth`` set, the same ``ScanReads`` fans the
        seek out over the tables the merge opens first and keeps up to that
        many of each level's next cloud tables opened and primed ahead of
        the scan, into the same buffers.
        """
        self._check_open()
        if limit is not None and limit <= 0:
            return
        sequence = snapshot.sequence if snapshot else self.versions.last_sequence
        target = seek_goal(begin) if begin else None
        reads = ScanReads(
            self.table_cache,
            limit,
            seek_goal(end) if end is not None else None,
            self.options.scan_prefetch_depth,
        )
        version = self._pin_version()
        try:
            l0_files, level_files = version.scan_files(begin, end)
            if reads.depth:
                # Seek fan-out: every reader the merge heap opens on its
                # first pull — all L0 tables plus each level's first
                # in-range table — opened as parallel branches instead of
                # a serial chain of cloud round trips.
                reads.fan_out(l0_files + [files[0] for files in level_files], target)
            tables = self.table_cache
            sources: list[Iterable[list[Entry]]] = [[self.memtable.entries(target)]]
            sources += [tables.get_reader(meta.number).block_lists(target, reads) for meta in l0_files]
            sources += [self._level_lists(files, target, reads) for files in level_files]
            blobs = self.blob_store
            newest_visible = -((sequence << 8) | 0xFF)
            current = None
            for run in merge_runs(sources):
                for user_key, neg_trailer, value in run:
                    # Internal order puts a key's newest entry first: the
                    # first one visible at the snapshot wins, a tombstone
                    # hides the key.
                    if neg_trailer < newest_visible or user_key == current:
                        continue
                    current = user_key
                    if -neg_trailer & 0xFF == TYPE_DELETION:
                        continue
                    if end is not None and user_key >= end:
                        return
                    if blobs is not None:
                        pointer = maybe_pointer(value)
                        if pointer is not None:
                            value = blobs.resolve(pointer, user_key)
                    if limit is None:
                        yield user_key, value
                        continue
                    limit -= 1
                    reads.remaining = limit
                    yield user_key, value
                    if not limit:
                        return
        finally:
            reads.finish()
            # Each buffer refers back to ``reads``: free the bytes now, not
            # at the next cyclic collection.
            reads.buffers.clear()
            self._unpin_version(version)

    def _level_lists(
        self, files: list[FileMetaData], target: SeekGoal | None, reads: ScanReads
    ) -> Iterator[list[Entry]]:
        """One level's disjoint in-range tables as a single source of block
        lists, each table opened only when the scan reaches it."""
        for index, meta in enumerate(files):
            if reads.depth:
                reads.table_started(files, index, target)
            yield from self.table_cache.get_reader(meta.number).block_lists(target, reads)

    # -- snapshots ----------------------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Capture a consistent read point (pin it until released)."""
        self._check_open()
        snap = Snapshot(self.versions.last_sequence)
        self._snapshots.append(snap)
        return snap

    def release_snapshot(self, snap: Snapshot) -> None:
        """Unpin ``snap``. Held snapshots are tracked by identity: two taken
        with no write between them share a sequence number, and releasing
        one must not unpin the other."""
        if snap not in self._snapshots:
            raise InvalidArgumentError("snapshot is not held by this DB (released twice?)")
        self._snapshots.remove(snap)

    # -- introspection -------------------------------------------------------------------------

    def metrics(self) -> dict[str, int | float]:
        """Every number the engine keeps, flat. A name never comes and goes
        with a flush, a compaction or a reopen: every level has its
        ``level.<n>.*`` pair, and ``blob.*`` is there exactly when the store
        has a blob log. Reading them does no I/O."""
        version = self.versions.current
        cache = self.block_cache
        out: dict[str, int | float] = {
            f"compaction.{name}": value for name, value in asdict(self.compaction_stats).items()
        }
        out.update(self.bloom_stats)
        out["block_cache.hits"] = cache.hits if cache is not None else 0
        out["block_cache.misses"] = cache.misses if cache is not None else 0
        out["flushes"] = self.flush_count
        for level in range(NUM_LEVELS):
            out[f"level.{level}.files"] = version.num_files(level)
            out[f"level.{level}.bytes"] = version.level_bytes(level)
        out["sst.bytes"] = version.total_bytes()
        out["memtable.entries"] = len(self.memtable)
        out["memtable.bytes"] = self.memtable.approximate_memory_usage()
        out["last_sequence"] = self.versions.last_sequence
        out["manifest.bytes"] = self.versions.manifest_bytes()
        out["snapshots"] = len(self._snapshots)
        out["orphans_purged"] = self.orphans_purged
        out.update({f"blocks.{source}": n for source, n in self.block_path.hits.items()})
        if self.blob_store is not None:
            out.update({f"blob.{name}": n for name, n in self.blob_store.stats().items()})
        return out

    def level_summary(self) -> list[tuple[int, int, int]]:
        """(level, file_count, bytes) per non-empty level."""
        version = self.versions.current
        return [
            (level, version.num_files(level), version.level_bytes(level))
            for level in range(NUM_LEVELS)
            if version.num_files(level)
        ]

    def approximate_size(self) -> int:
        """Total SSTable bytes plus memtable payload."""
        return self.versions.current.total_bytes() + self.memtable.approximate_memory_usage()
