"""REMIX-style global sorted view over a version's runs.

A :class:`SortedView` partitions the internal-key space into *segments*
bounded by an ascending anchor-key array.  Each segment records, for every
run (SSTable) whose key range intersects it, a *cursor*: the ordinal of the
first data block of that run that can contain keys of the segment.  A seek
is then one binary search over the anchors; a scan walks the per-run
cursors forward, touching only the handful of runs a segment actually
intersects instead of heap-merging every open source per key.

Anchors are *normalized*: every anchor is ``user_key + trailer(MAX_SEQUENCE,
TYPE_VALUE)`` — the smallest possible internal key for its user key — so all
internal entries of one user key land in exactly one segment.  The view
serves seeks and scans only; a point lookup routes by
``Version.files_for_user_key`` whether or not a view exists.

The view is rebuilt *incrementally* at flush/compaction time
(:func:`rebuild_view`): only the anchor window spanned by added/removed
tables is re-derived from index-block metadata, and segments strictly
before/after that window are spliced in from the previous view unchanged.
Trivial moves (level-only changes) reuse every segment.

The view is derived state, never persisted: ``repro.lsm.db`` builds it when
a store opens and after every file change, and serves scans from it only
while it describes the current version.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.lsm.block import Block
from repro.lsm.format import BlockHandle
from repro.lsm.table_builder import BlockMeta
from repro.util.encoding import (
    MAX_SEQUENCE,
    TYPE_VALUE,
    Entry,
    SeekGoal,
    extract_user_key,
    internal_order,
    make_internal_key,
    seek_goal,
)

_SEGMENT_ORDER = attrgetter("order")
"""``key=`` for bisecting a segment list by :attr:`ViewSegment.order`."""


@dataclass(frozen=True, slots=True)
class BlockRef:
    """Location and last key of one data block within a run."""

    last_key: bytes
    offset: int
    size: int


@dataclass(frozen=True, slots=True)
class TableRun:
    """One SSTable as the view sees it: key range plus its block map."""

    number: int
    level: int
    smallest: bytes
    largest: bytes
    blocks: tuple[BlockRef, ...]

    def block_for(self, goal: SeekGoal) -> BlockRef | None:
        """First block whose last key sorts at or after ``goal`` (None past
        the end)."""
        ordinal = _cursor_ordinal(self, goal)
        return self.blocks[ordinal] if ordinal < len(self.blocks) else None


@dataclass(frozen=True, slots=True)
class SegmentCursor:
    """Run selector + starting block ordinal for one run in one segment."""

    number: int
    ordinal: int


@dataclass(frozen=True, slots=True)
class ViewSegment:
    """Anchor (inclusive lower bound) plus the cursors of member runs."""

    anchor: bytes
    cursors: tuple[SegmentCursor, ...]
    order: SeekGoal = field(init=False, repr=False, compare=False)
    """The anchor's :func:`internal_order`, derived once per segment."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", internal_order(self.anchor))


@dataclass(slots=True)
class ViewBuildStats:
    """Incremental-rebuild accounting surfaced through obs events."""

    segments_reused: int = 0
    segments_rebuilt: int = 0


BlockSource = Callable[[int, "BlockRef"], Block]
"""``(table_number, block_ref) -> parsed data block``."""


def user_key_anchor(ikey: bytes) -> bytes:
    """Normalize an internal key to its user key's smallest internal key."""
    return make_internal_key(extract_user_key(ikey), MAX_SEQUENCE, TYPE_VALUE)


def run_from_blocks(
    number: int,
    level: int,
    smallest: bytes,
    largest: bytes,
    blocks: Iterable[BlockMeta],
) -> TableRun:
    """Build a :class:`TableRun` from builder/reader block metadata."""
    refs = tuple(
        BlockRef(meta.last_key, meta.handle.offset, meta.handle.size) for meta in blocks
    )
    return TableRun(number, level, smallest, largest, refs)


@dataclass(slots=True)
class SortedView:
    """Immutable-by-convention snapshot of the global sorted view."""

    tables: dict[int, TableRun] = field(default_factory=dict)
    segments: list[ViewSegment] = field(default_factory=list)

    def locate(self, goal: SeekGoal) -> int:
        """Index of the segment whose range contains the key ordered ``goal``.

        Greatest ``i`` with ``anchor[i] <= target``, clamped to 0 for
        targets below the first anchor (no keys live there anyway).
        """
        return max(bisect_right(self.segments, goal, key=_SEGMENT_ORDER) - 1, 0)

    def prefetch_plan(
        self, goal: SeekGoal | None, end: bytes | None = None, *, reverse: bool = False
    ) -> tuple[list[tuple[int, BlockHandle]], list[tuple[int, BlockHandle]]]:
        """(initial, upcoming) block plans for a scan's prefetcher.

        ``initial`` is the first block each run of the seek's segment will
        fetch — the view-path analogue of the merging iterator's seek
        fan-out, but with the exact block handles so no reader (footer/
        index/filter I/O) is ever opened. ``upcoming`` lists the entry
        blocks of runs that join in later segments up to the user key
        ``end``, in first-touched order, for depth-bounded speculative
        priming.

        ``reverse`` plans :meth:`stream_reverse` from the exclusive bound
        ``goal``: it reads a segment's member runs forward from their
        cursors, so the entry block per run is the cursor block itself,
        and the plan stops at the bound's segment (nothing upcoming).
        """
        initial: list[tuple[int, BlockHandle]] = []
        upcoming: list[tuple[int, BlockHandle]] = []
        if not self.segments:
            return initial, upcoming
        limit: SeekGoal | None = None
        if reverse:
            if goal is not None and goal <= self.segments[0].order:
                return initial, upcoming
            start = self.locate(goal) if goal is not None else len(self.segments) - 1
            stop = start + 1
        else:
            start = self.locate(goal) if goal is not None else 0
            stop = len(self.segments)
            if end is not None:
                limit = seek_goal(end)
        seen: set[int] = set()
        for i in range(start, stop):
            seg = self.segments[i]
            if i > start and limit is not None and seg.order >= limit:
                break
            for cur in seg.cursors:
                if cur.number in seen:
                    continue
                seen.add(cur.number)
                run = self.tables[cur.number]
                if i == start and goal is not None and not reverse:
                    ref = run.block_for(goal)
                    if ref is None:
                        continue
                else:
                    ref = run.blocks[cur.ordinal]
                entry = (cur.number, BlockHandle(ref.offset, ref.size))
                (initial if i == start else upcoming).append(entry)
        return initial, upcoming

    def stream(self, goal: SeekGoal | None, block_source: BlockSource) -> Iterator[Entry]:
        """All entries at or after ``goal`` in internal-key order.

        Equivalent to ``merge_internal`` over seeked table iterators, but
        with no per-key heap: within a segment at most the member runs are
        min-picked, and a single-member segment degenerates to a straight
        cursor walk.  Run streams are carried across segment boundaries so
        each data block is fetched at most once.
        """
        if not self.segments:
            return
        start = self.locate(goal) if goal is not None else 0
        streams: dict[int, _RunStream] = {}
        for i in range(start, len(self.segments)):
            seg = self.segments[i]
            upper = (
                self.segments[i + 1].order if i + 1 < len(self.segments) else None
            )
            active: list[_RunStream] = []
            carried: dict[int, _RunStream] = {}
            for cur in seg.cursors:
                run_stream = streams.get(cur.number)
                if run_stream is None:
                    run_stream = _RunStream(
                        self.tables[cur.number],
                        cur.ordinal,
                        goal if i == start else None,
                        block_source,
                    )
                carried[cur.number] = run_stream
                if run_stream.head is not None:
                    active.append(run_stream)
            streams = carried
            if not active:
                continue
            if len(active) == 1:
                only = active[0]
                while only.head is not None and (upper is None or only.head < upper):
                    yield only.head
                    only.step()
                continue
            while True:
                best: _RunStream | None = None
                best_head: Entry | None = None
                for run_stream in active:
                    head = run_stream.head
                    if head is None or (upper is not None and head >= upper):
                        continue
                    if best_head is None or head < best_head:
                        best, best_head = run_stream, head
                if best is None or best_head is None:
                    break
                yield best_head
                best.step()

    def stream_reverse(self, limit: SeekGoal | None, block_source: BlockSource) -> Iterator[Entry]:
        """All entries before ``limit`` in descending internal-key order.

        Walks segments from :meth:`locate`\\ (``limit``) downward; within a
        segment, member runs are read forward from their cursors, clipped at
        the segment/bound upper limit (blocks past the clip are never
        fetched), sorted once, and yielded reversed.
        """
        if not self.segments:
            return
        if limit is not None and limit <= self.segments[0].order:
            return
        start = self.locate(limit) if limit is not None else len(self.segments) - 1
        for i in range(start, -1, -1):
            seg = self.segments[i]
            upper = (
                self.segments[i + 1].order if i + 1 < len(self.segments) else None
            )
            if limit is not None and (upper is None or limit < upper):
                upper = limit
            entries: list[Entry] = []
            for cur in seg.cursors:
                run = self.tables[cur.number]
                for idx, ref in enumerate(run.blocks[cur.ordinal :]):
                    block = block_source(run.number, ref)
                    clipped = False
                    for entry in block.seek(seg.order) if idx == 0 else iter(block):
                        if upper is not None and entry >= upper:
                            clipped = True
                            break
                        entries.append(entry)
                    if clipped:
                        break
            entries.sort()
            yield from reversed(entries)


class _RunStream:
    """Lazy forward cursor over one run's blocks from a segment cursor.

    Fetches blocks on demand through the block source; while seeking, whole
    blocks below the seek target are skipped without being fetched.
    """

    __slots__ = ("head", "_entries")

    def __init__(
        self,
        run: TableRun,
        ordinal: int,
        goal: SeekGoal | None,
        block_source: BlockSource,
    ) -> None:
        self._entries = self._walk(run, ordinal, goal, block_source)
        self.head: Entry | None = None
        self.step()

    @staticmethod
    def _walk(
        run: TableRun,
        ordinal: int,
        goal: SeekGoal | None,
        block_source: BlockSource,
    ) -> Iterator[Entry]:
        for ref in run.blocks[ordinal:]:
            if goal is not None and internal_order(ref.last_key) < goal:
                continue  # whole block below the seek goal: never fetched
            block = block_source(run.number, ref)
            for entry in block.seek(goal) if goal is not None else iter(block):
                goal = None  # the seek applies until the first entry comes out
                yield entry

    def step(self) -> None:
        self.head = next(self._entries, None)


def rebuild_view(
    old: SortedView | None, tables: dict[int, TableRun]
) -> tuple[SortedView, ViewBuildStats]:
    """Build the view for a new version, splicing in unchanged segments.

    ``tables`` is the complete run set of the new version.  Runs are
    *changed* when added, removed, or re-keyed; level-only changes (trivial
    moves) keep every segment.  Segments strictly below the changed window
    (``next anchor <= min changed normalized smallest``) and strictly above
    it (``anchor > max changed largest``) are reused verbatim — changed runs
    provably cannot be members of, or contribute anchors to, those segments.
    The window in between is re-derived from the new runs' block maps, with
    the window's lower edge forced as an anchor to keep the partition
    contiguous.
    """
    stats = ViewBuildStats()
    if not tables:
        return SortedView(), stats
    if old is None or not old.segments:
        view = _full_build(tables)
        stats.segments_rebuilt = len(view.segments)
        return view, stats

    changed: list[TableRun] = []
    for number, run in tables.items():
        prev = old.tables.get(number)
        if prev is None or (
            prev.blocks != run.blocks
            or prev.smallest != run.smallest
            or prev.largest != run.largest
        ):
            changed.append(run)
    for number, prev in old.tables.items():
        if number not in tables:
            changed.append(prev)
    if not changed:
        stats.segments_reused = len(old.segments)
        return SortedView(dict(tables), list(old.segments)), stats

    window_lo = min(
        (user_key_anchor(run.smallest) for run in changed), key=internal_order
    )
    window_hi = max((run.largest for run in changed), key=internal_order)
    count = len(old.segments)
    # The window opens at the segment holding ``window_lo`` and closes before
    # the first anchor above ``window_hi``.
    window_order = internal_order(window_lo)
    prefix_end = old.locate(window_order)
    suffix_start = max(
        bisect_right(old.segments, internal_order(window_hi), key=_SEGMENT_ORDER),
        prefix_end,
    )

    mid_lo = old.segments[prefix_end].anchor
    if prefix_end == 0 and window_order < old.segments[0].order:
        # A changed run extends below the view's first anchor: the window's
        # lower edge must move down with it, else keys below the old first
        # anchor belong to no segment and vanish from the view.
        mid_lo = window_lo
    mid_hi = old.segments[suffix_start].anchor if suffix_start < count else None
    lo = internal_order(mid_lo)
    hi = internal_order(mid_hi) if mid_hi is not None else None
    runs = sorted(tables.values(), key=lambda run: run.number)
    mid_anchor_set = {mid_lo}
    for run in runs:
        if internal_order(run.largest) < lo:
            continue
        if hi is not None and internal_order(run.smallest) >= hi:
            continue
        candidates = [user_key_anchor(run.smallest)]
        candidates.extend(user_key_anchor(ref.last_key) for ref in run.blocks)
        for anchor in candidates:
            order = internal_order(anchor)
            if order >= lo and (hi is None or order < hi):
                mid_anchor_set.add(anchor)
    mid_anchors = sorted(mid_anchor_set, key=internal_order)
    mid_segments: list[ViewSegment] = []
    for i, anchor in enumerate(mid_anchors):
        nxt = mid_anchors[i + 1] if i + 1 < len(mid_anchors) else mid_hi
        mid_segments.append(_segment(anchor, nxt, runs))

    segments = (
        list(old.segments[:prefix_end])
        + mid_segments
        + list(old.segments[suffix_start:])
    )
    stats.segments_reused = prefix_end + (count - suffix_start)
    stats.segments_rebuilt = len(mid_segments)
    return SortedView(dict(tables), segments), stats


def _full_build(tables: dict[int, TableRun]) -> SortedView:
    runs = sorted(tables.values(), key=lambda run: run.number)
    anchor_set: set[bytes] = set()
    for run in runs:
        anchor_set.add(user_key_anchor(run.smallest))
        for ref in run.blocks:
            anchor_set.add(user_key_anchor(ref.last_key))
    anchors = sorted(anchor_set, key=internal_order)
    segments = []
    for i, anchor in enumerate(anchors):
        nxt = anchors[i + 1] if i + 1 < len(anchors) else None
        segments.append(_segment(anchor, nxt, runs))
    return SortedView(dict(tables), segments)


def _segment(
    anchor: bytes, next_anchor: bytes | None, runs: Sequence[TableRun]
) -> ViewSegment:
    lo = internal_order(anchor)
    hi = internal_order(next_anchor) if next_anchor is not None else None
    cursors: list[SegmentCursor] = []
    for run in runs:
        if internal_order(run.largest) < lo:
            continue
        if hi is not None and internal_order(run.smallest) >= hi:
            continue
        cursors.append(SegmentCursor(run.number, _cursor_ordinal(run, lo)))
    return ViewSegment(anchor, tuple(cursors))


def _cursor_ordinal(run: TableRun, goal: SeekGoal) -> int:
    """Ordinal of the first block whose last key sorts at or after ``goal``
    (exists for a segment's member runs; ``len(run.blocks)`` past the end)."""
    return bisect_left(run.blocks, goal, key=lambda ref: internal_order(ref.last_key))
