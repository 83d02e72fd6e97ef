"""Universal (tiered) compaction — the alternative to leveled compaction.

RocksDB's universal style trades read amplification for write
amplification: data lives in *sorted runs* (here: L0 files, newest first,
plus one optional bottom level) and compactions merge the **newest
contiguous prefix** of runs. Because any merge output replaces only the
newest runs, it is newer than every remaining run, so the engine's
L0-ordering invariant ("higher file number ⊇ newer data") is preserved and
the read path needs no changes.

Picking rules (simplified from RocksDB):

1. No compaction until there are ``level0_file_num_compaction_trigger``
   runs.
2. **Space amplification**: if the runs outside the bottom level exceed
   ``MAX_SIZE_AMPLIFICATION_PERCENT`` of the bottom level's size
   (or there is no bottom level and twice the trigger has accumulated),
   merge *everything* into the bottom level — the only merge allowed to
   drop tombstones.
3. **Size ratio**: otherwise greedily extend the candidate set from the
   newest run while the next (older) run is no larger than
   ``(100 + SIZE_RATIO) %`` of the accumulated size.
4. Fall back to merging the newest ``trigger`` runs ("width" merge) when
   rule 3 selected fewer than ``MIN_MERGE_WIDTH``.

Partial merges output back to L0 and must keep tombstones (an older run or
the bottom level may still hold shadowed values).

Interaction with RocksMash placement: young runs (L0) are local; full
merges land on the bottom level, which placement demotes to the cloud —
tiered compaction naturally maps onto tiered storage.
"""

from __future__ import annotations

from repro.lsm.compaction import Compaction
from repro.lsm.options import NUM_LEVELS, Options
from repro.lsm.version import FileMetaData, Version

SIZE_RATIO = 20
"""Rule 3: extend the merge while the next run is no larger than
(100 + this)% of the accumulated candidate size."""

MIN_MERGE_WIDTH = 2
"""Rule 4: a merge of fewer runs than this rewrites data without reducing
the run count."""

MAX_SIZE_AMPLIFICATION_PERCENT = 200
"""Rule 2: the runs above the base may hold this percentage of its size
before everything is merged into the bottom level."""


class UniversalCompactionPicker:
    """Chooses tiered merges; drop-in for :class:`CompactionPicker`."""

    bottom_level = NUM_LEVELS - 1

    def __init__(self, options: Options) -> None:
        self.options = options

    def _runs_newest_first(self, version: Version) -> list[FileMetaData]:
        return sorted(version.files[0], key=lambda m: -m.number)

    def pick(self, version: Version) -> Compaction | None:
        runs = self._runs_newest_first(version)
        trigger = self.options.level0_file_num_compaction_trigger
        if len(runs) < trigger:
            return None
        bottom = version.files[self.bottom_level]
        run_bytes = sum(m.file_size for m in runs)
        bottom_bytes = sum(m.file_size for m in bottom)

        def full_compaction() -> Compaction:
            return Compaction(
                level=0,
                inputs=runs,
                overlaps=list(bottom),
                score=float(len(runs)),
                output_level_override=self.bottom_level,
            )

        # Rule 2 — space amplification: everything above the base (the
        # bottom level, or the oldest run when no bottom exists yet) is
        # potential duplication; merge fully when it exceeds the limit.
        if bottom_bytes:
            base, above = bottom_bytes, run_bytes
        else:
            base = runs[-1].file_size
            above = run_bytes - base
        if above * 100 > MAX_SIZE_AMPLIFICATION_PERCENT * max(base, 1):
            return full_compaction()

        # Rule 3 — size ratio: extend from the newest run.
        selected = [runs[0]]
        total = runs[0].file_size
        for run in runs[1:]:
            if run.file_size * 100 <= (100 + SIZE_RATIO) * total:
                selected.append(run)
                total += run.file_size
            else:
                break
        # Rule 4 — width merge fallback.
        if len(selected) < MIN_MERGE_WIDTH:
            selected = runs[:trigger]

        # A merge that swallows every run *and* there is no bottom level yet
        # is a full compaction: seed the bottom level, where tombstones can
        # finally be dropped. (With a bottom level present, rewriting it on
        # every run-cascade would cost leveled-style write amplification —
        # only the space-amp rule may touch it.)
        if len(selected) == len(runs) and not bottom:
            return full_compaction()

        return Compaction(
            level=0,
            inputs=selected,
            overlaps=[],
            score=len(runs) / trigger,
            output_level_override=0,
            allow_tombstone_drop=False,  # older runs may hold shadowed data
            single_output=True,  # one L0 run, one file
        )

    def manual_compaction(self, version: Version) -> Compaction | None:
        """``DB.compact_range`` on a universal tree: every run merged into the
        bottom level in one rewrite, whatever the range — RocksDB's rule for
        a manual compaction of a tiered tree.

        Pushing runs down one level at a time, as a leveled tree is compacted,
        strands output in the middle levels whenever it stops early (a bounded
        range, a crash between two steps). The picker never reads those
        levels, so its next full merge would bury their newer neighbours under
        them and drop the tombstones that shadowed them.
        """
        runs = self._runs_newest_first(version)
        bottom = list(version.files[self.bottom_level])
        if not runs and not bottom:
            return None
        return Compaction(
            level=0 if runs else self.bottom_level,
            inputs=runs or bottom,
            overlaps=bottom if runs else [],
            score=1.0,
            output_level_override=self.bottom_level,
            force_rewrite=True,
        )
