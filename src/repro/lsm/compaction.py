"""Leveled compaction: picking, merging, and the event hooks RocksMash uses.

Picking follows LevelDB/RocksDB: L0 compacts when its *file count* reaches
the trigger; deeper levels compact when their *byte size* exceeds the level
target, highest score first. A compaction merges the chosen file(s) with the
overlapping files one level down, dropping shadowed entries and — at the
key's base level, beneath the oldest live snapshot — tombstones.

Two structural hooks matter for the paper's mechanisms:

* **Trivial move** — a file with no overlap below is relinked, not
  rewritten. File identity is preserved, so any cached blocks stay valid.
* **CompactionEvent** — emitted after every rewrite with the input files and
  the per-block key ranges of the outputs
  (:class:`~repro.lsm.table_builder.BlockMeta`), which the compaction-aware
  cache layout (:mod:`repro.mash.layout`) consumes to inherit block heat.

Execution is a **parallel pipeline**:

* ``max_subcompactions > 1`` (default off; see
  :class:`~repro.lsm.options.Options`) partitions the compaction's key
  range at boundaries sampled from input-file fences and index anchors
  (:func:`pick_subcompaction_boundaries`); each partition merges on a
  fork/join branch of the simulated clock and the compaction joins on the
  slowest — RocksDB's subcompactions, timed with the same fork/join
  machinery the xWAL's parallel recovery uses. Partitions execute
  sequentially in real time, so outputs, file numbers, and results are
  bit-for-bit deterministic.
* Every input is read in one pass its table's stack builds
  (:meth:`~repro.lsm.block_cache.BlockStack.sequential`): one ranged read
  per :data:`COMPACTION_READAHEAD_BYTES`, not one RTT per block, and no
  block cache looked up or filled. Every pass's first read is issued before
  the merge, concurrently (:data:`~repro.storage.cloud.REQUEST_SLOTS` slots).

Each output records the simulated time its builder finished
(``CompactionOutput.finished_at``); the placement layer uses it to overlap
cloud uploads with the remainder of the merge.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

from repro.lsm.blob import maybe_pointer
from repro.lsm.format import table_file_name
from repro.lsm.iterator import merge_internal
from repro.lsm.options import NUM_LEVELS, Options
from repro.lsm.table_builder import TableBuilder, TableProperties
from repro.lsm.table_cache import TableCache
from repro.lsm.version import FileMetaData, Version, VersionEdit
from repro.sim.clock import ForkJoinRegion
from repro.sim.failure import crash_points
from repro.storage.cloud import REQUEST_SLOTS
from repro.storage.env import Env
from repro.util.encoding import MAX_SEQUENCE, TYPE_DELETION, TYPE_VALUE, Entry, seek_goal

COMPACTION_READAHEAD_BYTES = 2 << 20
"""Bytes per ranged read of compaction's pass over an input: a whole table
at the experiments' 32 KiB files, one read per input."""


@dataclass
class Compaction:
    """A picked compaction: inputs at ``level`` merge into ``level + 1``
    (or into ``output_level_override`` for universal-style merges)."""

    level: int
    inputs: list[FileMetaData]
    overlaps: list[FileMetaData]
    score: float
    output_level_override: int | None = None
    allow_tombstone_drop: bool = True
    """False for universal partial merges: older runs outside the merge may
    still hold values a tombstone must keep shadowing."""

    force_rewrite: bool = False
    """Manual compactions set this: a rewrite must happen even where a
    trivial move would do, so tombstone dropping and the user compaction
    filter actually run."""

    single_output: bool = False
    """Universal *partial* merges set this: their output is one sorted run
    on L0, written as one file. Splitting it — into subcompactions, or at
    ``target_file_size_base`` — would raise the run count that triggers the
    next merge, and with a small target the merges would never stop. Full
    compactions and all leveled compactions may partition freely."""

    @property
    def output_level(self) -> int:
        if self.output_level_override is not None:
            return self.output_level_override
        return self.level + 1

    def is_trivial_move(self) -> bool:
        """Single input, nothing to merge below: relink instead of rewrite."""
        return (
            not self.force_rewrite
            and len(self.inputs) == 1
            and not self.overlaps
            and self.output_level != self.level
        )


@dataclass(frozen=True)
class CompactionOutput:
    """One table written by a compaction, with block-level key ranges."""

    meta: FileMetaData
    properties: TableProperties
    finished_at: float = 0.0
    """Simulated time the table's builder finished. An output is ready for
    upload at this instant, not at the end of the whole compaction — the
    placement layer back-dates upload branches to it so cloud PUTs overlap
    the remaining merge work."""


@dataclass(frozen=True)
class CompactionEvent:
    """Posted to listeners after a (non-trivial) compaction commits."""

    level: int
    output_level: int
    input_files: list[FileMetaData]
    outputs: list[CompactionOutput]
    dropped_entries: int
    trivial_move: bool = False


CompactionListener = Callable[[CompactionEvent], None]


@dataclass
class CompactionStats:
    """Aggregate counters for reporting (write amplification etc.)."""

    compactions: int = 0
    trivial_moves: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    entries_dropped: int = 0
    entries_filtered: int = 0
    subcompactions_run: int = 0
    """Partitions merged across all compactions (counts partitions only
    when a compaction actually split, i.e. ran >= 2 of them)."""
    coalesced_fetches: int = 0
    """Readahead range requests issued for compaction inputs."""
    coalesced_fetched_bytes: int = 0
    blob_bytes_dropped: int = 0
    """Blob-record bytes whose pointers compactions dropped (the blob GC's
    dead-byte feed)."""


def pick_subcompaction_boundaries(
    files: list[FileMetaData],
    max_parts: int,
    anchors_of: Callable[[FileMetaData], list[bytes]] | None = None,
) -> list[bytes]:
    """User keys that split a compaction into at most ``max_parts`` ranges.

    Candidates are every input file's fence keys plus, when ``anchors_of``
    is given, sampled index separator keys from inside each file. Fences
    alone are useless for L0-heavy compactions — every L0 file spans
    roughly the whole key range, so all fences collapse onto the two
    extremes — which is exactly why RocksDB samples in-file anchors.

    At most ``max_parts - 1`` boundaries are returned, drawn evenly from
    the sorted interior candidates (the global smallest and largest keys
    are excluded: they would create an empty or single-key partition).
    Boundaries partition the key space as half-open ranges
    ``[None, b0), [b0, b1), ..., [bk, None)`` over *user* keys, so every
    version of a given user key lands in exactly one partition — the
    shadowing/tombstone logic never sees a key split across workers.
    """
    if max_parts <= 1 or not files:
        return []
    candidates: set[bytes] = set()
    for meta in files:
        candidates.add(meta.smallest_user_key)
        candidates.add(meta.largest_user_key)
        if anchors_of is not None:
            candidates.update(anchors_of(meta))
    lo = min(meta.smallest_user_key for meta in files)
    hi = max(meta.largest_user_key for meta in files)
    interior = sorted(key for key in candidates if lo < key < hi)
    if not interior:
        return []
    want = min(max_parts - 1, len(interior))
    total = len(interior)
    picked: list[bytes] = []
    for i in range(want):
        key = interior[((i + 1) * total) // (want + 1)]
        if not picked or key != picked[-1]:
            picked.append(key)
    return picked


class CompactionPicker:
    """Chooses what to compact next; remembers per-level cursors."""

    def __init__(self, options: Options) -> None:
        self.options = options
        # Round-robin cursor: the largest user key compacted per level.
        self._pointers: dict[int, bytes] = {}

    def compute_scores(self, version: Version) -> list[tuple[float, int]]:
        """(score, level) pairs; score >= 1.0 means compaction is due."""
        scores: list[tuple[float, int]] = []
        trigger = self.options.level0_file_num_compaction_trigger
        scores.append((version.num_files(0) / trigger, 0))
        for level in range(1, NUM_LEVELS - 1):
            target = self.options.max_bytes_for_level(level)
            scores.append((version.level_bytes(level) / target, level))
        scores.sort(reverse=True)
        return scores

    def pick(self, version: Version) -> Compaction | None:
        scores = self.compute_scores(version)
        best_score, level = scores[0]
        if best_score < 1.0:
            return None
        if level == 0:
            seeds = list(version.files[0])
        else:
            files = version.files[level]
            cursor = self._pointers.get(level)
            seeds = [f for f in files if cursor is None or f.largest_user_key > cursor]
            if not seeds:
                seeds = files  # wrap around
            seeds = seeds[:1]
        if not seeds:
            return None
        begin = min(f.smallest_user_key for f in seeds)
        end = max(f.largest_user_key for f in seeds)
        inputs = version.overlapping_files(level, begin, end)
        begin = min(f.smallest_user_key for f in inputs)
        end = max(f.largest_user_key for f in inputs)
        overlaps = version.overlapping_files(level + 1, begin, end)
        self._pointers[level] = end
        return Compaction(level, inputs, overlaps, best_score)


class CompactionJob:
    """Executes one compaction and produces the VersionEdit to commit."""

    def __init__(
        self,
        env: Env,
        prefix: str,
        options: Options,
        table_cache: TableCache,
        new_file_number: Callable[[], int],
        *,
        stats: CompactionStats | None = None,
    ) -> None:
        self.env = env
        self.prefix = prefix
        self.options = options
        self.table_cache = table_cache
        self.new_file_number = new_file_number
        self.stats = stats or CompactionStats()

    def run(
        self,
        compaction: Compaction,
        version: Version,
        *,
        smallest_snapshot: int = MAX_SEQUENCE,
        newest_snapshot: int = 0,
        listener: CompactionListener | None = None,
        blob_drops: dict[int, int] | None = None,
    ) -> VersionEdit:
        """Merge inputs, write outputs, and return the edit (not committed).

        ``smallest_snapshot`` is the oldest sequence any live snapshot may
        read; entries required by it are preserved. ``newest_snapshot`` is
        the youngest live snapshot (0 = none): the user compaction filter
        only touches entries *no* snapshot can still observe.

        ``blob_drops``, when provided, accumulates the record bytes of every
        dropped blob pointer per segment number — the blob GC's dead-byte
        feed. Drops respect snapshots, so a pointer counted here is provably
        unreachable by any reader.
        """

        def announce(
            inputs: list[FileMetaData], outputs: list[CompactionOutput], dropped: int, trivial: bool
        ) -> None:
            if listener is not None:
                level, output_level = compaction.level, compaction.output_level
                listener(CompactionEvent(level, output_level, inputs, outputs, dropped, trivial))

        edit = VersionEdit()
        for meta in compaction.inputs:
            edit.delete_file(compaction.level, meta.number)
        for meta in compaction.overlaps:
            edit.delete_file(compaction.output_level, meta.number)

        if compaction.is_trivial_move():
            moved = compaction.inputs[0]
            edit.add_file(compaction.output_level, moved)
            self.stats.trivial_moves += 1
            announce(list(compaction.inputs), [], 0, True)
            return edit

        partitions = self._plan_partitions(compaction)
        outputs: list[CompactionOutput] = []
        merge = partial(
            self._merge_partition,
            compaction,
            version,
            outputs,
            smallest_snapshot=smallest_snapshot,
            newest_snapshot=newest_snapshot,
            blob_drops=blob_drops,
        )
        dropped = 0
        if len(partitions) > 1:
            # Each partition merges on a fork/join branch; real execution
            # stays sequential (deterministic file numbers and bytes), only
            # the *timing* models the partitions as concurrent workers.
            region = ForkJoinRegion(self.env.clock)
            for lo, hi in partitions:
                with region.branch():
                    dropped += merge(lo, hi)
            region.join()
            self.stats.subcompactions_run += len(partitions)
        else:
            ((lo, hi),) = partitions
            dropped += merge(lo, hi)

        for output in outputs:
            edit.add_file(compaction.output_level, output.meta)
        self.stats.compactions += 1
        self.stats.entries_dropped += dropped
        self.stats.bytes_read += sum(
            meta.file_size for meta in compaction.inputs + compaction.overlaps
        )

        announce(compaction.inputs + compaction.overlaps, outputs, dropped, False)
        return edit

    def _plan_partitions(
        self, compaction: Compaction
    ) -> list[tuple[bytes | None, bytes | None]]:
        """Half-open user-key ranges to merge; ``[(None, None)]`` = serial."""
        max_parts = self.options.max_subcompactions
        if max_parts <= 1 or compaction.single_output:
            return [(None, None)]
        files = compaction.inputs + compaction.overlaps

        def anchors_of(meta: FileMetaData) -> list[bytes]:
            return self.table_cache.get_reader(meta.number).anchor_user_keys()

        boundaries = pick_subcompaction_boundaries(files, max_parts, anchors_of=anchors_of)
        if not boundaries:
            return [(None, None)]
        edges: list[bytes | None] = [None, *boundaries, None]
        return list(zip(edges[:-1], edges[1:]))

    def _merge_partition(
        self,
        compaction: Compaction,
        version: Version,
        outputs: list[CompactionOutput],
        lo: bytes | None,
        hi: bytes | None,
        *,
        smallest_snapshot: int,
        newest_snapshot: int,
        blob_drops: dict[int, int] | None = None,
    ) -> int:
        """Merge the inputs restricted to user keys in ``[lo, hi)``.

        Appends the tables written for this partition to ``outputs`` and
        returns the number of entries dropped. Output files never straddle
        a partition boundary, so partitions compose into the same total
        ordering regardless of how the range was split.
        """
        passes = []
        sources = []
        primes = []
        for meta in compaction.inputs + compaction.overlaps:
            if hi is not None and meta.smallest_user_key >= hi:
                continue
            if lo is not None and meta.largest_user_key < lo:
                continue
            reader = self.table_cache.get_reader(meta.number)
            stack = reader.stack.sequential(COMPACTION_READAHEAD_BYTES)
            passes.append(stack)
            sources.append(reader.range_iter(lo, hi, stack=stack))
            first = reader.edge_data_handle(seek_goal(lo) if lo is not None else None)
            if first is not None:
                primes.append((stack, first))
        # The merge's first pull would fetch each input's opening range in
        # turn; issue those reads first, concurrently. Same requests in the
        # same order: only the clock sees the overlap.
        clock = self.env.clock
        region = ForkJoinRegion(clock, slots=REQUEST_SLOTS)
        for stack, first in primes:
            with region.branch():
                stack.prime(first)
        region.join()
        merged = merge_internal(sources)

        dropped = 0
        user_filter = self.options.compaction_filter

        def visible() -> Iterator[Entry]:
            """The merged entries an output keeps: shadowed versions, repeated
            entries and base-level tombstones dropped, the user filter applied."""
            nonlocal dropped
            prev_user_key: bytes | None = None
            prev_neg_trailer = 1  # no entry's: a neg_trailer is <= 0
            last_seq_for_key = MAX_SEQUENCE
            for entry in merged:
                user_key, neg_trailer, value = entry
                sequence = -neg_trailer >> 8
                value_type = -neg_trailer & 0xFF
                if user_key != prev_user_key:
                    prev_user_key = user_key
                    prev_neg_trailer = 1
                    last_seq_for_key = MAX_SEQUENCE

                # Dropped: a newer entry for this key is already visible to
                # every live snapshot, so this one can never be read again; or
                # it is the previous entry over again (a WAL replayed over a
                # flush that had committed leaves one copy per source); or it
                # is a tombstone with nothing left beneath it to hide.
                drop = (
                    last_seq_for_key <= smallest_snapshot
                    or neg_trailer == prev_neg_trailer
                    or (
                        compaction.allow_tombstone_drop
                        and value_type == TYPE_DELETION
                        and sequence <= smallest_snapshot
                        and version.is_base_level_for_key(compaction.output_level, user_key)
                    )
                )
                last_seq_for_key = sequence
                prev_neg_trailer = neg_trailer

                if drop:
                    dropped += 1
                    self._account_blob_drop(value_type, value, blob_drops)
                    continue

                if (
                    user_filter is not None
                    and value_type == TYPE_VALUE
                    and sequence > newest_snapshot
                    and not user_filter(user_key, value)
                ):
                    # The filter retired this entry. At the key's base level it
                    # can vanish outright; elsewhere it becomes a tombstone so
                    # older buried versions stay hidden.
                    self.stats.entries_filtered += 1
                    self._account_blob_drop(value_type, value, blob_drops)
                    if compaction.allow_tombstone_drop and version.is_base_level_for_key(
                        compaction.output_level, user_key
                    ):
                        dropped += 1
                        continue
                    entry = (user_key, -((sequence << 8) | TYPE_DELETION), b"")
                yield entry

        # The builder pulls the stream: one ``fill`` per output, which leaves
        # ``kept`` on the first entry of the next one. File number and
        # writable file are allocated once an entry is there to write.
        kept = visible()
        max_file_size = None if compaction.single_output else self.options.target_file_size_base
        for first in kept:
            number = self.new_file_number()
            builder = TableBuilder(
                self.options, self.env.new_writable_file(table_file_name(self.prefix, number))
            )
            builder.fill(chain((first,), kept), max_file_size)
            props = builder.finish()
            meta = FileMetaData(number, props.file_size, props.smallest_key, props.largest_key)
            outputs.append(CompactionOutput(meta, props, clock.now))
            self.stats.bytes_written += props.file_size
            # One output is fully on disk, later ones not started: the
            # classic partial-compaction crash (orphans, inputs live).
            crash_points.reach("compaction.mid_output")

        for stack in passes:
            self.stats.coalesced_fetches += stack.fetches
            self.stats.coalesced_fetched_bytes += stack.fetched_bytes
        return dropped

    def _account_blob_drop(
        self, value_type: int, value: bytes, blob_drops: dict[int, int] | None
    ) -> None:
        """Credit a dropped blob pointer's record bytes to its segment."""
        if blob_drops is None or value_type != TYPE_VALUE:
            return
        pointer = maybe_pointer(value)
        if pointer is None:
            return
        blob_drops[pointer.segment] = blob_drops.get(pointer.segment, 0) + pointer.length
        self.stats.blob_bytes_dropped += pointer.length
