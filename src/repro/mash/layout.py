"""Compaction-aware cache layouts: block heat tracking and inheritance.

The problem the paper attacks: a conventional block cache keys entries by
``(file, offset)``, so every compaction — which rewrites files — invalidates
the cached working set and the store pays a burst of cloud reads to re-warm
("the cache cliff"). RocksMash makes the persistent cache *LSM-aware*:

1. Every SSTable's data blocks are registered with their user-key ranges
   (:class:`~repro.lsm.table_builder.BlockMeta`, reported by flush and
   compaction events, or lazily recovered from a table's index block).
2. Reads accumulate *heat* per block.
3. On compaction, each output block inherits the heat of the input blocks
   whose key ranges overlap it (weighted by overlap count), and output
   blocks whose inherited heat clears a threshold are **pre-warmed** into
   the persistent cache while the freshly written file is still on the
   local device — before placement demotes it to the cloud. Only then are
   the input files' cache entries dropped.

The naive mode (``aware=False``) skips steps 1–3 and just invalidates —
exactly the ablation of experiment E8/E12b.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass

from repro.lsm.compaction import CompactionEvent
from repro.lsm.table_builder import BlockMeta
from repro.util.encoding import extract_user_key

HEAT_DECAY = 0.5
"""Multiplier applied to inherited heat (older heat counts for less)."""

PREWARM_BUDGET_BLOCKS = 256
"""Cap on blocks pre-warmed per compaction (bounds the write burst)."""


@dataclass(frozen=True)
class LayoutConfig:
    """Compaction-aware layout knobs."""

    aware: bool = True
    """False = naive invalidation (the ablation baseline)."""

    prewarm_heat_threshold: float = 2.0
    """Minimum inherited heat for an output block to be pre-warmed."""


class _FileBlocks:
    """Sorted block ranges of one table (user-key space).

    A table's blocks ascend and are disjoint in internal-key order, so
    ``firsts`` and ``lasts`` are each non-decreasing (one user key's
    versions may straddle a block boundary, making a last equal the next
    first) and both can be bisected.
    """

    __slots__ = ("metas", "firsts", "lasts")

    def __init__(self, metas: list[BlockMeta]) -> None:
        self.metas = metas
        self.firsts = [extract_user_key(m.first_key) for m in metas]
        self.lasts = [extract_user_key(m.last_key) for m in metas]


class BlockHeatTracker:
    """Tracks per-block access heat and computes compaction inheritance."""

    def __init__(self, config: LayoutConfig | None = None) -> None:
        self.config = config or LayoutConfig()
        self._files: dict[str, _FileBlocks] = {}
        # file -> block offset -> heat, for any file read: registered or not.
        self._heat: dict[str, dict[int, float]] = {}
        self.prewarmed_blocks = 0
        self.inherited_heat_total = 0.0

    # -- registration ---------------------------------------------------

    def register_file(self, file_name: str, blocks: list[BlockMeta]) -> None:
        """Record the block layout of a newly created (or reopened) table."""
        self._files[file_name] = _FileBlocks(list(blocks))

    def knows_file(self, file_name: str) -> bool:
        return file_name in self._files

    def forget_file(self, file_name: str) -> None:
        self._files.pop(file_name, None)
        self._heat.pop(file_name, None)

    # -- heat --------------------------------------------------------------

    def record_access(self, file_name: str, block_offset: int, weight: float = 1.0) -> None:
        heat = self._heat.setdefault(file_name, {})
        heat[block_offset] = heat.get(block_offset, 0.0) + weight

    def heat_of(self, file_name: str, block_offset: int) -> float:
        return self._heat.get(file_name, {}).get(block_offset, 0.0)

    def file_heat(self, file_name: str) -> float:
        """Total heat across a file's blocks (drives up-tier promotion)."""
        return sum(self._heat.get(file_name, {}).values(), 0.0)

    # -- inheritance ------------------------------------------------------------

    def plan_inheritance(
        self, event: CompactionEvent, name_of: Callable[[int], str]
    ) -> list[tuple[str, BlockMeta, float]]:
        """Compute (output_file, block, inherited_heat) for one compaction.

        ``name_of(file_number)`` maps a table number to the file name the
        tracker was registered under. Each input block's heat is split
        evenly across the output blocks it overlaps, then scaled by
        :data:`HEAT_DECAY`. Returns pre-warm candidates sorted hottest-first,
        thresholded and capped by the budget.

        Shares reach an output block in input-file-then-block order: float
        addition does not commute in the last bit, a candidate's place at
        the threshold and in the budget cut depends on that bit, and so
        does every pre-warm figure downstream.
        """
        if not self.config.aware or event.trivial_move:
            return []
        # Per registered input file that holds heat: its block ranges and a
        # heat list parallel to them.
        hot: list[tuple[_FileBlocks, list[float]]] = []
        for meta in event.input_files:
            file_name = name_of(meta.number)
            fb = self._files.get(file_name)
            heat_by_offset = self._heat.get(file_name)
            if fb is None or not heat_by_offset:
                continue
            heats = [heat_by_offset.get(block.handle.offset, 0.0) for block in fb.metas]
            if max(heats, default=0.0) > 0:
                hot.append((fb, heats))
        if not hot:
            return []

        candidates: list[tuple[str, BlockMeta, float]] = []
        threshold = self.config.prewarm_heat_threshold
        for output in event.outputs:
            out_name = name_of(output.meta.number)
            fb = self._files.get(out_name)
            if fb is None or not fb.metas:
                continue
            firsts, lasts = fb.firsts, fb.lasts
            inherited = [0.0] * len(firsts)
            for source, heats in hot:
                # Only input blocks reaching into [firsts[0], lasts[-1]] can
                # overlap a block of this output.
                reach = range(
                    bisect_left(source.lasts, firsts[0]), bisect_right(source.firsts, lasts[-1])
                )
                for i in reach:
                    if heats[i] <= 0:
                        continue
                    # Output blocks it intersects: from the first ending at or
                    # after its first key to the last starting at or before its
                    # last key; none when it fell into a gap between two.
                    start = bisect_left(lasts, source.firsts[i])
                    stop = bisect_right(firsts, source.lasts[i])
                    if stop > start:
                        share = heats[i] * HEAT_DECAY / (stop - start)
                        for j in range(start, stop):
                            inherited[j] += share
            for block, h in zip(fb.metas, inherited):
                if h >= threshold:
                    candidates.append((out_name, block, h))
                if h > 0:
                    # Seed the new block's heat so future compactions keep
                    # propagating it.
                    self.record_access(out_name, block.handle.offset, h)
        candidates.sort(key=lambda item: -item[2])
        capped = candidates[:PREWARM_BUDGET_BLOCKS]
        self.inherited_heat_total += sum(h for _, _, h in capped)
        return capped
