"""Pipelined scan prefetch: overlap cloud round trips across tables.

A range scan merges one iterator per L0 file plus one per deeper level;
each level walks its disjoint tables in key order. Without prefetch the
merge pays every cloud-resident table's open (footer/index/filter) and
first ranged GET only when the heap *reaches* that table — strictly
serially, one RTT chain per table. This module hides those round trips as
compaction hides its input fetches, but speculatively: work runs under a
:class:`~repro.sim.clock.ForkJoinRegion` on forked child clocks, so its
simulated latency overlaps consumption of the current table and only the
*uncovered* remainder reaches the parent clock at join.

One :class:`ScanPrefetcher` exists per scan (built by
``RocksMashStore`` via ``DB.scan_pipeline_factory``); it implements the
engine's :class:`~repro.lsm.db.ScanPipeline` protocol:

* **Seek fan-out** — at scan start the opens of all in-range L0 readers and
  each level's first in-range table run as parallel branches of one region
  (strict join: the seek costs the *slowest* open, not the sum).
* **Pipelined prefetch** — when a level iterator starts consuming table
  *i*, the next cloud tables of that level (up to ``scan_prefetch_depth``
  outstanding across the whole scan) are opened and *primed*, each on its
  own back-datable branch. The branch is joined with merge semantics when
  the iterator reaches that table: latency that fit inside the consumption
  of earlier tables costs the parent clock nothing (``prefetch_hit``), and
  a branch the scan never reaches is abandoned without ever charging the
  parent (``prefetch_waste`` — the wasted GETs still count in the request
  counters and the cost model, because they really were issued).

Priming a table issues exactly the read the scan's first miss in it would
issue — one ranged GET from the scan's entry block, sized by the scan's
``limit`` and ``end`` (:meth:`~repro.lsm.table_reader.TableReader.scan_span`)
— into the scan's own :class:`~repro.lsm.block_cache.ScanBuffer` of the
table, only earlier and on a forked clock. The pipeline therefore issues the
requests a plain scan would, never more on a scan that reaches every table it
primes; prefetched readers land in the shared :class:`TableCache`, so handoff
to the consuming iterator is free.

Waste is bounded: at most ``depth`` speculative prefetches are outstanding
at any time, so a short scan abandons at most ``depth`` tables.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.lsm.block_cache import ScanReads
from repro.lsm.format import table_file_name
from repro.lsm.table_cache import TableCache
from repro.lsm.version import FileMetaData
from repro.sim.clock import ClockCharged, ForkJoinRegion, SimClock
from repro.util.encoding import SeekGoal

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer


@dataclass
class PrefetchStats:
    """Per-scan accounting, mirrored as tracer events."""

    fanout_opens: int = 0
    issued: int = 0
    hits: int = 0
    waste: int = 0


class ScanPrefetcher:
    """Prefetch state for one scan (see module docstring)."""

    def __init__(
        self,
        *,
        reads: ScanReads,
        clock: SimClock,
        hosts: Sequence[ClockCharged],
        tracer: "Tracer",
        table_cache: TableCache,
        is_cloud: Callable[[str], bool],
        depth: int,
        readahead_bytes: int,
    ) -> None:
        if depth < 1:
            raise ValueError("scan prefetch depth must be >= 1")
        self.reads = reads
        self.clock = clock
        self.hosts = list(hosts)
        self.tracer = tracer
        self.table_cache = table_cache
        self.is_cloud = is_cloud
        self.depth = depth
        self.readahead_bytes = readahead_bytes
        self.stats = PrefetchStats()
        self._pending: dict[int, ForkJoinRegion] = {}
        self._ripe: set[int] = set()
        self._seen: set[int] = set()
        self._finished = False

    # -- ScanPipeline protocol: hooks called from DB.scan and its sources -----

    def seek_fanout(self, metas: Sequence[FileMetaData], target: SeekGoal | None) -> None:
        """Open the scan's initial readers as parallel branches.

        ``metas`` are the in-range L0 files plus each level's first
        in-range table — exactly the readers the merge heap touches on its
        first pull. All opens are charged concurrently and joined strictly
        before consumption starts: the seek pays one slowest open instead
        of a serial chain of them.
        """
        todo = [meta.number for meta in metas if meta.number not in self._seen]
        if not todo:
            return
        region = ForkJoinRegion(self.clock, self.hosts)
        for number in todo:
            self._seen.add(number)
            with region.branch():
                self._prime(number, target)
        region.join()
        self.stats.fanout_opens += len(todo)
        self.tracer.event("seek_fanout")

    def table_started(
        self, files: Sequence[FileMetaData], index: int, target: SeekGoal | None
    ) -> None:
        """A level iterator is about to consume ``files[index]``.

        Joins the table's own speculative branch (its latency may already
        be hidden), reaps branches that finished in the parent's past, then
        tops the pipeline back up to ``depth`` in-flight prefetches from
        this level's upcoming cloud tables.
        """
        self._arrive(files[index].number)
        for meta in files[index + 1 :]:
            if len(self._pending) >= self.depth:
                break
            if meta.number in self._seen:
                continue
            self._seen.add(meta.number)
            if not self.is_cloud(self._name_of(meta.number)):
                continue  # local opens are cheap; open on demand
            if self.table_cache.has_reader(meta.number) and self.readahead_bytes <= 0:
                continue  # already open and nothing to prime: free handoff
            self._issue(meta.number, target)

    def finish(self) -> None:
        """Scan ended: abandon outstanding prefetches.

        Abandoned branches are *not* joined — the client never waited for
        them, so their latency stays off the parent clock. Their requests
        already hit the global counters and the cost model.
        """
        if self._finished:
            return
        self._finished = True
        for _ in range(len(self._pending) + len(self._ripe)):
            self.stats.waste += 1
            self.tracer.event("prefetch_waste")
        self._pending.clear()
        self._ripe.clear()

    # -- internals ----------------------------------------------------------

    def _name_of(self, number: int) -> str:
        return table_file_name(self.table_cache.prefix, number)

    def _issue(self, number: int, target: SeekGoal | None) -> None:
        region = ForkJoinRegion(self.clock, self.hosts)
        with region.branch():
            self._prime(number, target)
        self._pending[number] = region
        self.stats.issued += 1
        self.tracer.event("prefetch_issue")

    def _arrive(self, number: int) -> None:
        """The scan reached table ``number``: settle its speculative branch."""
        if number in self._ripe:
            # Prefetched, completed while other tables were consumed, and
            # now reached: a hit that never moved the parent clock.
            self._ripe.discard(number)
            self.stats.hits += 1
            self.tracer.event("prefetch_hit")
        else:
            region = self._pending.pop(number, None)
            if region is not None:
                # Merge semantics: the branch started in the past (when the
                # previous tables began consuming); work that finished
                # before `now` is fully hidden and the parent does not move.
                region.join(strict=False)
                self.stats.hits += 1
                self.tracer.event("prefetch_hit")
        self._reap_ripe()

    def _reap_ripe(self) -> None:
        """Free-join pending branches that finished in the parent's past.

        A prefetch whose child clock already lies at or before ``now`` is
        fully hidden: joining it with merge semantics moves the parent by
        zero. Reaping it releases its slot in the ``depth`` in-flight
        budget, so a prefetch for a far-future table (e.g. another level's
        next file) cannot starve the actively consumed level. The reaped
        table is remembered in ``_ripe``; it becomes a hit only if the scan
        actually reaches it, else waste at :meth:`finish`.
        """
        ripe = [
            number
            for number, region in self._pending.items()
            if region.children
            and max(child.now for child in region.children) <= self.clock.now
        ]
        for number in ripe:
            region = self._pending.pop(number)
            region.join(strict=False)  # delta 0: no parent movement
            self._ripe.add(number)

    def _prime(self, number: int, target: SeekGoal | None) -> None:
        """Issue the read the scan's first miss in table ``number`` would
        issue, into the scan's buffer of it (served as the ``primed``
        source).

        The table's reader is opened into the shared :class:`TableCache` —
        the round trips a fan-out or prefetch branch exists to hide, paid
        even when there is nothing to prime — and the entry block of a scan
        from ``target`` is read off its index.
        """
        reader = self.table_cache.get_reader(number)
        if self.readahead_bytes <= 0 or not self.is_cloud(reader.name):
            return
        handle = reader.edge_data_handle(target)
        if handle is None:
            return
        self.reads.buffer(reader).fill(handle, self.readahead_bytes, primed=True)
