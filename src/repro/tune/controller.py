"""Deterministic feedback controller for the read/write pipeline knobs.

:class:`TuningController` closes the observe→decide→apply loop entirely on
the simulated clock. The store calls :meth:`TuningController.record_op`
after every facade operation; every ``interval_ops`` operations the
controller snapshots a *window* of observed signals (op mix, prefetch
hit/waste events, cloud round-trip time, compaction shape, value-size
histogram), charges its own evaluation cost as CPU time, and drives the
live knobs:

========================  ====================================================
knob                      rule
========================  ====================================================
``filter_allocation``     Monkey allocation from the observed level sizes,
                          slope scaled by the point-read share (new tables
                          built during flush/compaction pick it up, so the
                          filters migrate without a rewrite)
``scan_prefetch_depth``   off below a scan-share floor; otherwise walked
                          ±1 per window by the prefetch waste ratio (waste
                          is a *billable* cloud GET — E21)
``scan_readahead_bytes``  quantized ladder by scan share, bumped one step
                          when the observed cloud RTT is high
``compaction_readahead``  on (coalesced 2 MiB reads) once compactions touch
                          the cloud-resident levels, off otherwise
``max_subcompactions``    observed compaction input width divided by the
                          target file size, capped
``blob_value_threshold``  smallest power-of-two bound capturing ≥ half the
                          window's written value bytes (only *moves* the
                          threshold; separation on/off is a MANIFEST brand
                          and cannot change live)
========================  ====================================================

Anti-oscillation: a changed target must be recommended in **two
consecutive windows** before it is applied (:meth:`_confirm`). Under
stationary window statistics every rule's target is a deterministic
function of the current knob value, so the trajectory provably reaches a
fixed point: once ``target == current`` for every knob the controller
never moves again (the hypothesis suite drives this as a property).

Determinism: no wall clock, no randomness — the same op stream with the
same seed yields an identical :meth:`trajectory_digest`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.lsm.filters import FilterAllocation
from repro.lsm.options import BLOOM_BITS_PER_KEY, LEVEL_SIZE_MULTIPLIER, NUM_LEVELS
from repro.tune.allocation import monkey_allocation

if TYPE_CHECKING:
    from repro.lsm.db import DB
    from repro.obs.trace import Tracer
    from repro.sim.clock import SimClock


class ReadKnobs(Protocol):
    """Live store-side knobs the controller may mutate.

    ``repro.mash``'s ``StoreConfig`` satisfies this structurally; the
    Protocol keeps ``repro.tune`` importable without ``repro.mash``
    (tune → lsm only, mash → tune — no cycle).
    """

    scan_readahead_bytes: int


#: Facade op kinds folded into the three workload classes.
_POINT_KINDS = frozenset({"get", "multi_get", "read"})
_SCAN_KINDS = frozenset({"scan", "scan_reverse"})
_WRITE_KINDS = frozenset({"put", "delete", "write", "update", "insert", "rmw"})


# -- rule thresholds ---------------------------------------------------------
# Constants, not configuration: each has only ever had this one value, and a
# test that needs another uses ``monkeypatch.setattr`` on this module.

EVAL_CPU_SECONDS = 20e-6
"""CPU charge per evaluation (the controller's own cost is modeled, not
free — it shows up in spans like any other work)."""

MAX_PREFETCH_DEPTH = 6
"""Ceiling the prefetch depth climbs to under low waste."""

SCAN_SHARE_FLOOR = 0.05
"""Below this scan share the prefetch pipeline is turned off — a
speculative table open serves nobody on a point-read workload."""

WASTE_HIGH = 0.5
"""Window waste ratio above which the prefetch depth steps down (every
wasted prefetch block is a billable cloud GET)."""

WASTE_LOW = 0.2
"""Window waste ratio below which the depth steps up."""

READAHEAD_LADDER = (
    4 << 10,
    8 << 10,
    16 << 10,
    32 << 10,
    64 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
)
"""Quantized scan-readahead sizes, ascending. The rung is chosen by the
observed average scan *footprint* (result bytes per scan): a buffer smaller
than the footprint leaves round trips on the table, a buffer larger than it
fetches bytes nobody reads — so the smallest rung covering the footprint
coalesces a scan's blocks into one ranged read without over-fetching. Scans
smaller than the bottom rung disable readahead entirely (0): at that size
even one speculative block is mostly waste."""

RTT_HIGH_SECONDS = 0.015
"""Observed per-op cloud round trip above this bumps readahead one extra
rung — fetch more per request when requests are expensive."""

COMPACTION_READAHEAD_TARGET = 2 << 20
"""Coalesced read size compactions use once they touch cloud-resident levels."""

WRITE_SHARE_FLOOR = 0.05
"""Compaction tuning only engages when writes are a visible share of the
window (a read-only phase gains nothing from wider merges)."""

MAX_SUBCOMPACTIONS_CAP = 8
"""Widest parallel merge the subcompaction rule asks for."""

BLOB_THRESHOLD_FLOOR = 256
BLOB_THRESHOLD_CAP = 64 << 10
"""Bounds the blob divert threshold is clamped to."""

BLOB_BYTE_SHARE = 0.5
"""Divert the smallest value size capturing at least this share of the
window's written value bytes."""


@dataclass(frozen=True)
class TuningConfig:
    """The two controller settings callers differ on.

    Every rule threshold is a module constant above; every knob is tuned
    whenever its mechanism exists on the store (filters when blooms are on,
    readahead when the store exposes it, the blob threshold when the store
    separates values).
    """

    interval_ops: int = 2000
    """Re-evaluate every this many recorded facade operations."""

    tune_prefetch_depth: bool = True
    """Per-shard controllers set this False: shard-local prefetch
    pipelines fight the router's fan-out branches (see repro.serve)."""

    def __post_init__(self) -> None:
        if self.interval_ops < 1:
            raise ValueError("interval_ops must be >= 1")


@dataclass(frozen=True)
class WindowStats:
    """One evaluation window's observed signals (all window deltas)."""

    ops: int
    point_share: float
    scan_share: float
    write_share: float
    prefetch_hits: int
    prefetch_waste: int
    cloud_ops: int
    cloud_seconds: float
    compactions: int
    compaction_bytes_read: int
    level_bytes: tuple[int, ...]
    write_bytes: int
    value_hist: tuple[tuple[int, int], ...]
    """Sorted ``(power-of-two upper bound, bytes written)`` buckets."""
    scan_bytes: int = 0
    """Result bytes returned by this window's scans (their footprint)."""

    @property
    def cloud_rtt(self) -> float:
        """Mean seconds per cloud round trip this window (0 if none)."""
        return self.cloud_seconds / self.cloud_ops if self.cloud_ops else 0.0

    @property
    def avg_scan_bytes(self) -> float:
        """Mean result bytes per scan this window (0 without scans)."""
        scans = round(self.ops * self.scan_share)
        return self.scan_bytes / scans if scans else 0.0

    @property
    def deepest_level(self) -> int:
        return len(self.level_bytes) - 1


@dataclass(frozen=True)
class TuningDecision:
    """One evaluation's outcome: when, what the knobs are, what moved."""

    at_seconds: float
    op_index: int
    changed: tuple[str, ...]
    knobs: tuple[tuple[str, str], ...]
    """Sorted ``(knob, rendered value)`` snapshot after this evaluation."""


@dataclass
class TuningController:
    """Re-evaluates the live knobs every ``config.interval_ops`` ops."""

    db: "DB"
    tracer: "Tracer"
    clock: "SimClock"
    config: TuningConfig = field(default_factory=TuningConfig)
    read_knobs: ReadKnobs | None = None
    """Store-side live knobs (readahead); None disables readahead tuning."""
    cloud_level: int | None = None
    """First cloud-resident LSM level, when the store splits placement;
    None falls back to 'cloud traffic observed this window'."""

    def __post_init__(self) -> None:
        self.op_index = 0
        self.trajectory: list[TuningDecision] = []
        self._pending: dict[str, object] = {}
        self._win_ops = 0
        self._win_points = 0
        self._win_scans = 0
        self._win_scan_bytes = 0
        self._win_writes = 0
        self._win_write_bytes = 0
        self._win_hist: dict[int, int] = {}
        self._base_events: dict[str, int] = {}
        self._base_cloud_seconds = 0.0
        self._base_cloud_ops = 0
        self._base_compactions = 0
        self._base_bytes_read = 0
        self._snapshot_baselines()

    # -- observation --------------------------------------------------------

    def record_op(self, kind: str, nbytes: int = 0) -> None:
        """Note one facade operation; evaluates when the window fills.

        ``kind`` is the facade method name (``get``/``scan``/``put``/…);
        ``nbytes`` is the written value size for write kinds (it feeds
        the blob-threshold histogram) and the result byte count for scan
        kinds (it feeds the readahead/prefetch footprint rules).
        """
        self.op_index += 1
        self._win_ops += 1
        if kind in _POINT_KINDS:
            self._win_points += 1
        elif kind in _SCAN_KINDS:
            self._win_scans += 1
            self._win_scan_bytes += max(0, nbytes)
        elif kind in _WRITE_KINDS:
            self._win_writes += 1
            if nbytes > 0:
                self._win_write_bytes += nbytes
                bucket = 1 << (nbytes - 1).bit_length()
                self._win_hist[bucket] = self._win_hist.get(bucket, 0) + nbytes
        if self._win_ops >= self.config.interval_ops:
            self.evaluate()

    def _snapshot_baselines(self) -> None:
        for label in ("prefetch_hit", "prefetch_waste"):
            self._base_events[label] = self.tracer.event_count(label)
        self._base_cloud_seconds = self.tracer.totals.as_dict().get("cloud", 0.0)
        self._base_cloud_ops = self.tracer.total_cloud_ops
        stats = self.db.compaction_stats
        self._base_compactions = stats.compactions
        self._base_bytes_read = stats.bytes_read

    def _window_stats(self) -> WindowStats:
        ops = max(1, self._win_ops)
        sizes = [0] * NUM_LEVELS
        for level, _files, nbytes in self.db.level_summary():
            sizes[level] = nbytes
        while len(sizes) > 1 and sizes[-1] == 0:
            sizes.pop()
        cstats = self.db.compaction_stats
        return WindowStats(
            ops=self._win_ops,
            point_share=self._win_points / ops,
            scan_share=self._win_scans / ops,
            write_share=self._win_writes / ops,
            prefetch_hits=self.tracer.event_count("prefetch_hit")
            - self._base_events["prefetch_hit"],
            prefetch_waste=self.tracer.event_count("prefetch_waste")
            - self._base_events["prefetch_waste"],
            cloud_ops=self.tracer.total_cloud_ops - self._base_cloud_ops,
            cloud_seconds=self.tracer.totals.as_dict().get("cloud", 0.0)
            - self._base_cloud_seconds,
            compactions=cstats.compactions - self._base_compactions,
            compaction_bytes_read=cstats.bytes_read - self._base_bytes_read,
            level_bytes=tuple(sizes),
            write_bytes=self._win_write_bytes,
            value_hist=tuple(sorted(self._win_hist.items())),
            scan_bytes=self._win_scan_bytes,
        )

    # -- decision -----------------------------------------------------------

    def evaluate(self) -> TuningDecision:
        """Close one window: snapshot, decide, apply, record.

        Charged as CPU on the simulated clock — the controller is part of
        the modeled system, not an observer outside it.
        """
        self.clock.advance(EVAL_CPU_SECONDS)
        self.tracer.charge("cpu", EVAL_CPU_SECONDS)
        stats = self._window_stats()
        changed = self._apply(stats)
        decision = TuningDecision(
            at_seconds=self.clock.now,
            op_index=self.op_index,
            changed=tuple(changed),
            knobs=tuple(sorted(self.knobs().items())),
        )
        self.trajectory.append(decision)
        self._win_ops = 0
        self._win_points = 0
        self._win_scans = 0
        self._win_scan_bytes = 0
        self._win_writes = 0
        self._win_write_bytes = 0
        self._win_hist = {}
        self._snapshot_baselines()
        return decision

    def _confirm(self, name: str, current: object, target: object) -> bool:
        """Two-consecutive-windows confirmation rule.

        Returns True when ``target`` should be applied *now*: it differs
        from the current value and the previous window recommended the
        same target. A target that matches the current value clears any
        pending recommendation — one odd window can never move a knob.
        """
        if target == current:
            self._pending.pop(name, None)
            return False
        if self._pending.get(name) == target:
            del self._pending[name]
            return True
        self._pending[name] = target
        return False

    def _apply(self, stats: WindowStats) -> list[str]:
        """Run every applicable knob rule against one window's stats."""
        options = self.db.options
        changed: list[str] = []

        target = monkey_allocation(
            stats.level_bytes,
            budget_bits_per_key=BLOOM_BITS_PER_KEY,
            size_multiplier=LEVEL_SIZE_MULTIPLIER,
            point_read_share=stats.point_share,
        )
        current = options.filter_allocation or FilterAllocation.uniform(
            BLOOM_BITS_PER_KEY, len(stats.level_bytes)
        )
        if self._confirm("filter_allocation", current, target):
            options.filter_allocation = target
            changed.append("filter_allocation")

        if self.config.tune_prefetch_depth:
            depth = options.scan_prefetch_depth
            target_depth = self._prefetch_target(stats, depth)
            if self._confirm("scan_prefetch_depth", depth, target_depth):
                options.scan_prefetch_depth = target_depth
                changed.append("scan_prefetch_depth")

        if self.read_knobs is not None:
            ra = self.read_knobs.scan_readahead_bytes
            target_ra = self._readahead_target(stats, ra)
            if self._confirm("scan_readahead_bytes", ra, target_ra):
                self.read_knobs.scan_readahead_bytes = target_ra
                changed.append("scan_readahead_bytes")

        cra = options.compaction_readahead_bytes
        target_cra = self._compaction_readahead_target(stats, cra)
        if self._confirm("compaction_readahead_bytes", cra, target_cra):
            options.compaction_readahead_bytes = target_cra
            changed.append("compaction_readahead_bytes")

        subs = options.max_subcompactions
        target_subs = self._subcompactions_target(stats, subs)
        if self._confirm("max_subcompactions", subs, target_subs):
            options.max_subcompactions = target_subs
            changed.append("max_subcompactions")

        if self.db.blob_store is not None and options.blob_value_threshold > 0:
            thr = options.blob_value_threshold
            target_thr = self._blob_threshold_target(stats, thr)
            if self._confirm("blob_value_threshold", thr, target_thr):
                options.blob_value_threshold = target_thr
                changed.append("blob_value_threshold")

        return changed

    # -- per-knob rules -----------------------------------------------------

    def _prefetch_target(self, stats: WindowStats, depth: int) -> int:
        if stats.scan_share < SCAN_SHARE_FLOOR:
            return 0
        if (
            stats.avg_scan_bytes < self.db.options.target_file_size_base
            and stats.cloud_ops < stats.ops
        ):
            # A scan smaller than one table crosses into the next table
            # only ~footprint/table_size of the time, so most speculative
            # opens are abandoned. That gamble only pays when opens are
            # cloud-bound (the window shows at least one cloud request
            # per op): a cold open is then a chain of round trips and the
            # rare crossing saves more than the frequent waste costs. On
            # a warm tree the waste is pure loss — stay off.
            return 0
        if depth <= 0:
            return 1
        probes = stats.prefetch_hits + stats.prefetch_waste
        if probes == 0:
            return depth
        waste_ratio = stats.prefetch_waste / probes
        if waste_ratio > WASTE_HIGH:
            return max(1, depth - 1)
        if waste_ratio < WASTE_LOW and stats.prefetch_hits > 0:
            return min(MAX_PREFETCH_DEPTH, depth + 1)
        return depth

    def _readahead_target(self, stats: WindowStats, current: int) -> int:
        ladder = READAHEAD_LADDER
        if stats.scan_share < SCAN_SHARE_FLOOR:
            return current  # no scan signal this window: hold, don't churn
        avg = stats.avg_scan_bytes
        if avg < ladder[0]:
            # Scans smaller than the smallest buffer: every readahead
            # fill fetches (mostly) bytes the scan never reads.
            return 0
        rung = 0
        while rung < len(ladder) - 1 and ladder[rung] < avg:
            rung += 1
        if stats.cloud_rtt > RTT_HIGH_SECONDS:
            rung = min(rung + 1, len(ladder) - 1)
        return ladder[rung]

    def _compaction_readahead_target(self, stats: WindowStats, current: int) -> int:
        # Hysteresis on the write-share gate: engage at the floor, release
        # only below half of it. A workload whose write share hovers right
        # at the floor (a 5%-insert YCSB phase) would otherwise flip the
        # knob on alternating windows forever.
        floor = WRITE_SHARE_FLOOR / 2.0 if current > 0 else WRITE_SHARE_FLOOR
        if stats.write_share < floor:
            return 0
        if self.cloud_level is not None:
            cloud_resident = stats.deepest_level >= self.cloud_level
        else:
            cloud_resident = stats.cloud_ops > 0
        return COMPACTION_READAHEAD_TARGET if cloud_resident else 0

    def _subcompactions_target(self, stats: WindowStats, current: int) -> int:
        if stats.compactions == 0 or stats.write_share < WRITE_SHARE_FLOOR:
            return current
        avg_input = stats.compaction_bytes_read // stats.compactions
        width = avg_input // max(1, self.db.options.target_file_size_base)
        return max(1, min(MAX_SUBCOMPACTIONS_CAP, width))

    def _blob_threshold_target(self, stats: WindowStats, current: int) -> int:
        if stats.write_bytes <= 0:
            return current
        # Walk buckets from the largest values down; the first bound whose
        # tail captures the target byte share is the divert threshold.
        tail = 0
        target = BLOB_THRESHOLD_CAP
        for bound, nbytes in reversed(stats.value_hist):
            tail += nbytes
            if tail >= BLOB_BYTE_SHARE * stats.write_bytes:
                target = bound
                break
        return max(BLOB_THRESHOLD_FLOOR, min(BLOB_THRESHOLD_CAP, target))

    # -- reporting ----------------------------------------------------------

    def knobs(self) -> dict[str, str]:
        """Rendered snapshot of every tuned knob's current value."""
        options = self.db.options
        alloc = options.filter_allocation
        return {
            "filter_allocation": (
                alloc.describe() if alloc is not None else f"uniform:{BLOOM_BITS_PER_KEY}"
            ),
            "scan_prefetch_depth": str(options.scan_prefetch_depth),
            "scan_readahead_bytes": (
                str(self.read_knobs.scan_readahead_bytes)
                if self.read_knobs is not None
                else "-"
            ),
            "compaction_readahead_bytes": str(options.compaction_readahead_bytes),
            "max_subcompactions": str(options.max_subcompactions),
            "blob_value_threshold": str(options.blob_value_threshold),
        }

    def trajectory_digest(self) -> str:
        """SHA-256 over the full decision trajectory.

        Two runs of the same op stream must produce byte-identical
        trajectories — the determinism property hashes this.
        """
        h = hashlib.sha256()
        for d in self.trajectory:
            h.update(
                f"{d.at_seconds:.9f}|{d.op_index}|{','.join(d.changed)}|{d.knobs}\n".encode()
            )
        return h.hexdigest()
