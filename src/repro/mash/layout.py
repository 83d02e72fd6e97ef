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

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.lsm.compaction import CompactionEvent
from repro.lsm.table_builder import BlockMeta
from repro.util.encoding import extract_user_key

HEAT_DECAY = 0.5
"""Multiplier applied to inherited heat (older heat counts for less)."""


@dataclass(frozen=True)
class LayoutConfig:
    """Compaction-aware layout knobs."""

    aware: bool = True
    """False = naive invalidation (the ablation baseline)."""

    prewarm_heat_threshold: float = 2.0
    """Minimum inherited heat for an output block to be pre-warmed."""

    prewarm_budget_blocks: int = 256
    """Cap on blocks pre-warmed per compaction (bounds write burst)."""


@dataclass
class _FileBlocks:
    """Sorted block ranges of one table (user-key space)."""

    metas: list[BlockMeta]
    last_user_keys: list[bytes] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.last_user_keys = [extract_user_key(m.last_key) for m in self.metas]

    def blocks_overlapping(self, lo: bytes, hi: bytes) -> list[BlockMeta]:
        """Blocks whose user-key range intersects [lo, hi]."""
        start = bisect_left(self.last_user_keys, lo)
        out = []
        for meta in self.metas[start:]:
            if extract_user_key(meta.first_key) > hi:
                break
            out.append(meta)
        return out


class BlockHeatTracker:
    """Tracks per-block access heat and computes compaction inheritance."""

    def __init__(self, config: LayoutConfig | None = None) -> None:
        self.config = config or LayoutConfig()
        self._files: dict[str, _FileBlocks] = {}
        self._heat: dict[tuple[str, int], float] = {}
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
        for key in [k for k in self._heat if k[0] == file_name]:
            del self._heat[key]

    # -- heat --------------------------------------------------------------

    def record_access(self, file_name: str, block_offset: int, weight: float = 1.0) -> None:
        key = (file_name, block_offset)
        self._heat[key] = self._heat.get(key, 0.0) + weight

    def heat_of(self, file_name: str, block_offset: int) -> float:
        return self._heat.get((file_name, block_offset), 0.0)

    def file_heat(self, file_name: str) -> float:
        """Total heat across a file's blocks (drives up-tier promotion)."""
        return sum(v for (name, _), v in self._heat.items() if name == file_name)

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
        """
        if not self.config.aware or event.trivial_move:
            return []
        contributions: list[tuple[bytes, bytes, float]] = []  # (lo, hi, heat)
        for meta in event.input_files:
            file_name = name_of(meta.number)
            fb = self._files.get(file_name)
            if fb is None:
                continue
            for block in fb.metas:
                heat = self.heat_of(file_name, block.handle.offset)
                if heat > 0:
                    contributions.append(
                        (
                            extract_user_key(block.first_key),
                            extract_user_key(block.last_key),
                            heat,
                        )
                    )
        if not contributions:
            return []

        candidates: list[tuple[str, BlockMeta, float]] = []
        for output in event.outputs:
            out_name = name_of(output.meta.number)
            fb = self._files.get(out_name)
            if fb is None:
                continue
            inherited: dict[int, float] = {}
            for lo, hi, heat in contributions:
                overlapping = fb.blocks_overlapping(lo, hi)
                if not overlapping:
                    continue
                share = heat * HEAT_DECAY / len(overlapping)
                for block in overlapping:
                    inherited[block.handle.offset] = (
                        inherited.get(block.handle.offset, 0.0) + share
                    )
            for block in fb.metas:
                h = inherited.get(block.handle.offset, 0.0)
                if h >= self.config.prewarm_heat_threshold:
                    candidates.append((out_name, block, h))
                if h > 0:
                    # Seed the new block's heat so future compactions keep
                    # propagating it.
                    self.record_access(out_name, block.handle.offset, h)
        candidates.sort(key=lambda item: -item[2])
        capped = candidates[: self.config.prewarm_budget_blocks]
        self.inherited_heat_total += sum(h for _, _, h in capped)
        return capped
