"""Hybrid data placement: which files live on local storage vs the cloud.

RocksMash's placement rule (paper §design):

* **Always local** — write-ahead log, MANIFEST, CURRENT: small, hot,
  latency- and durability-critical metadata.
* **Upper LSM levels local** — freshly flushed and recently compacted data
  (L0 … ``cloud_level - 1``) stays on the fast device, because recency
  correlates with access probability in LSM workloads.
* **Lower levels cloud** — the bulk of the tree (typically >90 % of bytes)
  is demoted to the object store as compaction pushes it down.

Demotion happens *after* a compaction commits: output files landing at or
below ``cloud_level`` are uploaded and their local copy dropped. An optional
byte budget additionally demotes the coldest (deepest, largest-numbered)
local tables when the device fills up — this is what experiment E11 sweeps.

Uploads *overlap* the compaction that produced them: each output records
when its builder finished (``CompactionOutput.finished_at``), and the
demotion batch replays the uploads on back-dated child clocks through up to
:data:`~repro.storage.cloud.REQUEST_SLOTS` slots — modelling a real
implementation that starts PUTting a finished output while the merge keeps
producing the next one.
The simulated time this recovers versus strictly-serial post-compaction
uploads is ticked as ``compaction.upload_overlap_us_saved``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.lsm.compaction import CompactionEvent
from repro.lsm.db import DB, FlushEvent
from repro.lsm.format import table_file_name
from repro.sim.clock import ForkJoinRegion
from repro.sim.failure import crash_points
from repro.storage.cloud import REQUEST_SLOTS
from repro.storage.env import CLOUD, LOCAL, HybridEnv

PROMOTION_HEADROOM = 0.9
"""Promotions stop once local bytes exceed this fraction of the budget."""

PROMOTION_HEAT_THRESHOLD = 5.0
"""Minimum accumulated block heat for a cloud table to be promoted."""


@dataclass(frozen=True)
class PlacementConfig:
    """Placement policy knobs."""

    cloud_level: int = 2
    """First LSM level stored in the cloud (levels below it stay local)."""

    local_bytes_budget: int | None = None
    """Optional cap on local SSTable bytes; overflow demotes deepest-first."""

    promotion_enabled: bool = False
    """Promote hot cloud-resident tables back to the local device
    (up-tiering). Requires ``local_bytes_budget``; promotions only use the
    budget's headroom so they never fight the demotion path."""

    multipart_part_bytes: int = 8 << 20
    """Demotion uploads larger than one part stream as a multipart upload
    (parts invisible until completed; a crash abandons them). Tables at or
    under one part go up as a single atomic PUT."""

    def __post_init__(self) -> None:
        if self.cloud_level < 1:
            raise ValueError("cloud_level must be >= 1 (L0 is always local)")
        if self.multipart_part_bytes < 1:
            raise ValueError("multipart_part_bytes must be >= 1")
        if self.promotion_enabled and self.local_bytes_budget is None:
            raise ValueError("promotion requires local_bytes_budget")


def make_router(prefix: str) -> Callable[[str], str]:
    """HybridEnv router: every file is *born* local.

    SSTables are always written locally first (fast flush/compaction) and
    demoted by :class:`PlacementManager` afterwards; logs and manifests
    never leave the local device.
    """

    def route(name: str) -> str:
        return LOCAL

    return route


class PlacementManager:
    """Subscribes to DB events and enforces the placement policy."""

    def __init__(
        self,
        db: DB,
        env: HybridEnv,
        config: PlacementConfig,
        *,
        before_demote: Callable[[int], None] | None = None,
    ) -> None:
        self.db = db
        self.env = env
        self.config = config
        self.before_demote = before_demote
        """``(file number)``, called while the table's local copy still
        exists — the store pins the table's metadata from it."""
        self.demotions = 0
        self.budget_demotions = 0
        self.promotions = 0
        self.single_put_uploads = 0
        self.multipart_uploads = 0
        db.listeners.on_flush.append(self._on_flush)
        db.listeners.on_compaction.append(self._on_compaction)

    # -- event handlers -------------------------------------------------

    def _on_flush(self, event: FlushEvent) -> None:
        # L0 output stays local; only the budget can push it out.
        self._enforce_budget()

    def _on_compaction(self, event: CompactionEvent) -> None:
        if event.trivial_move:
            # The file was relinked to ``output_level`` without a rewrite;
            # demote it if it crossed the cloud boundary. It existed before
            # the compaction, so its upload has been "ready" all along.
            if event.output_level >= self.config.cloud_level:
                self._demote_batch([(meta.number, None) for meta in event.input_files])
            self._enforce_budget()
            return
        if event.output_level >= self.config.cloud_level:
            self._demote_batch(
                [(output.meta.number, output.finished_at) for output in event.outputs]
            )
        self._enforce_budget()

    # -- mechanics ----------------------------------------------------------

    def _demote_batch(self, items: list[tuple[int, float | None]]) -> None:
        """Demote several tables with overlapped, slot-limited uploads.

        ``items`` is ``(file number, ready_at)`` where ``ready_at`` is the
        simulated instant the file became uploadable (``None`` = now). Each
        upload runs on a child clock back-dated to ``max(ready_at, slot
        free time)`` across the request slots; the parent clock then
        merges, so fully-overlapped uploads cost no wall time at all.
        The difference versus serially uploading after the barrier is
        ticked as ``compaction.upload_overlap_us_saved``.
        """
        clock = self.env.sim_clock()
        if clock is None or len(items) <= 1:
            for number, _ in items:
                self._demote(number)
            return
        base_now = clock.now
        region = ForkJoinRegion(clock, self.env.clock_hosts(), slots=REQUEST_SLOTS)
        serial_cost = 0.0
        for number, ready_at in items:
            with region.branch(start=ready_at) as child:
                start = child.now
                self._demote(number)
            serial_cost += child.now - start
        region.join(strict=False)
        saved = (base_now + serial_cost) - clock.now
        if saved > 0:
            self._tick_overlap_saved(saved)

    def _tick_overlap_saved(self, seconds: float) -> None:
        hosts = self.env.clock_hosts()
        counters = getattr(hosts[0], "counters", None) if hosts else None
        if counters is not None:
            # CounterSet is integer-valued; store as microseconds.
            counters.inc("compaction.upload_overlap_us_saved", int(seconds * 1e6))

    def _demote(self, number: int) -> None:
        """Upload one table to the cloud tier, then drop the local copy.

        Tables above ``multipart_part_bytes`` stream as a multipart upload:
        parts are durable server-side but the object stays invisible until
        completion, so a crash mid-upload leaves the local copy authoritative
        and the abandoned parts reclaimable. Either way the local delete
        happens only after the cloud object is fully visible.
        ``before_demote`` runs first and the ``demotion`` event is posted
        last, also for a table a later compaction already deleted or one
        that is in the cloud already.
        """
        if self.before_demote is not None:
            self.before_demote(number)
        name = table_file_name(self.db.prefix, number)
        if self.env.file_exists(name) and self.env.tier_of(name) != CLOUD:
            data = self.env.local.read_file(name)
            store = self.env.cloud.store
            part_bytes = self.config.multipart_part_bytes
            if len(data) <= part_bytes:
                # Small-table fast path: exactly one PUT request, never the
                # multipart initiate/complete overhead.
                store.put(name, data)
                self.single_put_uploads += 1
            else:
                for offset in range(0, len(data), part_bytes):
                    store.upload_part(name, data[offset : offset + part_bytes])
                    crash_points.reach("demote.mid_upload")
                store.complete_multipart(name, data)
                self.multipart_uploads += 1
            self.env.note_tier(name, CLOUD)
            crash_points.reach("demote.before_local_delete")
            self.env.local.delete_file(name)
            self.demotions += 1
            # The reader (if open) holds a local-tier file handle; reopen lazily.
            self.db.table_cache.evict(number)
        self.db.block_path.event("demotion")

    def _enforce_budget(self) -> None:
        budget = self.config.local_bytes_budget
        if budget is None:
            return
        # Demote deepest-level, then oldest (lowest-numbered) tables first:
        # depth is the engine's own coldness signal. Victims are collected
        # up front so their uploads share the demotion slots.
        local = self.local_table_bytes()
        victims: list[tuple[int, float | None]] = []
        exclude: set[int] = set()
        while local > budget:
            victim = self._pick_budget_victim(exclude)
            if victim is None:
                break
            number, size = victim
            exclude.add(number)
            victims.append((number, None))
            local -= size
        if not victims:
            return
        self._demote_batch(victims)
        self.budget_demotions += len(victims)

    def _pick_budget_victim(self, exclude: set[int] = frozenset()) -> tuple[int, int] | None:
        version = self.db.versions.current
        for level in range(len(version.files) - 1, -1, -1):
            for meta in version.files[level]:
                if meta.number in exclude:
                    continue
                name = table_file_name(self.db.prefix, meta.number)
                if self.env.file_exists(name) and self.env.tier_of(name) == LOCAL:
                    return meta.number, meta.file_size
        return None

    # -- promotion (up-tiering) ---------------------------------------------------

    def maybe_promote(self, heat_of_file: Callable[[str], float]) -> int:
        """Promote the hottest cloud tables into the budget's headroom.

        ``heat_of_file(name) -> float`` supplies access heat (typically
        :meth:`BlockHeatTracker.file_heat`). Returns how many tables were
        promoted. Demotion always wins ties: promotions never push local
        usage past ``PROMOTION_HEADROOM * budget``.
        """
        config = self.config
        if not config.promotion_enabled or config.local_bytes_budget is None:
            return 0
        ceiling = config.local_bytes_budget * PROMOTION_HEADROOM
        candidates = []
        for _level, meta in self.db.versions.current.all_files():
            name = table_file_name(self.db.prefix, meta.number)
            if not self.env.file_exists(name) or self.env.tier_of(name) != CLOUD:
                continue
            heat = heat_of_file(name)
            if heat >= PROMOTION_HEAT_THRESHOLD:
                candidates.append((heat, meta))
        candidates.sort(key=lambda item: -item[0])
        promoted = 0
        for _heat, meta in candidates:
            if self.local_table_bytes() + meta.file_size > ceiling:
                break
            name = table_file_name(self.db.prefix, meta.number)
            self.env.migrate(name, LOCAL)
            self.db.table_cache.evict(meta.number)
            self.promotions += 1
            promoted += 1
        return promoted

    # -- accounting ------------------------------------------------------------

    def local_table_bytes(self) -> int:
        """SSTable bytes currently on the local tier."""
        total = 0
        for _, meta in self.db.versions.current.all_files():
            name = table_file_name(self.db.prefix, meta.number)
            if self.env.file_exists(name) and self.env.tier_of(name) == LOCAL:
                total += meta.file_size
        return total

    def cloud_table_bytes(self) -> int:
        total = 0
        for _, meta in self.db.versions.current.all_files():
            name = table_file_name(self.db.prefix, meta.number)
            if self.env.file_exists(name) and self.env.tier_of(name) == CLOUD:
                total += meta.file_size
        return total

    def tier_summary(self) -> dict[str, int]:
        return {
            "local_bytes": self.local_table_bytes(),
            "cloud_bytes": self.cloud_table_bytes(),
            "demotions": self.demotions,
            "budget_demotions": self.budget_demotions,
            "promotions": self.promotions,
            "single_put_uploads": self.single_put_uploads,
            "multipart_uploads": self.multipart_uploads,
        }
