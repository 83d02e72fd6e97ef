"""Fault injection for simulated devices: transient errors and crashes.

Three failure modes matter for the paper's reliability story:

* **Transient cloud errors** — an object-store request fails (throttling,
  5xx) and must be retried. :class:`FaultInjector` fails a configurable
  fraction of operations with :class:`~repro.errors.IOErrorSim`; callers
  (the cloud store) retry with capped exponential backoff charged to the
  simulated clock. An optional op-prefix filter targets specific request
  kinds (e.g. storm only ``cloud.put*`` while reads stay healthy).
* **Crash between operations** — a process stops between two store calls.
  Simulated by discarding unsynced buffered state; devices expose
  ``crash()`` which drops writes that were never ``sync``'d (or, in
  torn-tail mode, keeps an arbitrary byte prefix of them).
* **Crash inside an operation** — the interesting case for an LSM store:
  power fails halfway through a flush, compaction, manifest rewrite,
  demotion upload, xWAL multi-shard sync, or checkpoint. The
  :class:`CrashPointRegistry` names every such site; arming one makes the
  next pass through it raise :class:`CrashPointFired`, after which a
  harness crashes the devices and re-opens the store to check recovery.

The harness is the stateful store oracle
(``tests/property/test_store_machine.py``): it arms every registered site
and checks the reopened store against its dict model.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import IOErrorSim

# --------------------------------------------------------------------------
# Transient faults
# --------------------------------------------------------------------------


@dataclass
class FaultInjector:
    """Deterministically injects failures into device operations.

    Attributes:
        error_rate: probability in [0, 1] that an operation raises.
        seed: RNG seed so failure sequences are reproducible.
        fail_next: one-shot queue — explicit failures scheduled by tests,
            consumed before any probabilistic failure is considered.
        op_prefixes: optional filter — only operations whose name starts
            with one of these prefixes are eligible to fail (both for the
            probabilistic rate and the ``fail_next`` queue). ``None``
            keeps the historical uniform behaviour. Example:
            ``("cloud.put", "cloud.upload_part")`` storms writes while
            reads stay healthy.
    """

    error_rate: float = 0.0
    seed: int = 0
    fail_next: list[str] = field(default_factory=list)
    injected: int = 0
    op_prefixes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError(f"error_rate {self.error_rate} outside [0, 1]")
        self._rng = random.Random(self.seed)

    def schedule_failure(self, reason: str = "scheduled fault") -> None:
        """Force the next checked (matching) operation to fail with ``reason``."""
        self.fail_next.append(reason)

    def matches(self, op: str) -> bool:
        """Whether ``op`` is eligible for injection under the prefix filter."""
        if self.op_prefixes is None:
            return True
        return any(op.startswith(prefix) for prefix in self.op_prefixes)

    def check(self, op: str) -> None:
        """Raise :class:`IOErrorSim` if a fault fires for this operation."""
        if not self.matches(op):
            return
        if self.fail_next:
            self.injected += 1
            raise IOErrorSim(f"{op}: {self.fail_next.pop(0)}")
        if self.error_rate > 0.0 and self._rng.random() < self.error_rate:
            self.injected += 1
            raise IOErrorSim(f"{op}: injected transient error")


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Capped exponential backoff for transient errors."""

    max_attempts: int = 5
    initial_backoff: float = 10e-3
    multiplier: float = 2.0
    max_backoff: float = 1.0

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (0-based)."""
        return min(self.max_backoff, self.initial_backoff * self.multiplier**attempt)


# --------------------------------------------------------------------------
# Crash points
# --------------------------------------------------------------------------


class CrashPointFired(Exception):
    """A crash point fired: the simulated process dies *here*.

    Deliberately **not** a :class:`~repro.errors.ReproError`: nothing in the
    library may catch and survive it — it must propagate to the test
    harness, which then crashes the devices and re-opens the store.
    """

    def __init__(self, site: str) -> None:
        super().__init__(f"simulated crash at {site}")
        self.site = site


#: Every instrumented mid-operation crash site, with what a crash there
#: leaves behind. Central so a harness can enumerate every site even before
#: the instrumented modules are imported.
CRASH_SITES: dict[str, str] = {
    "flush.before_manifest": (
        "L0 table written and WAL rotated, manifest edit not yet committed "
        "(orphan table; old WAL generation still replayable)"
    ),
    "flush.after_manifest": (
        "manifest edit committed, old WAL generation not yet deleted "
        "(stale log files on disk)"
    ),
    "compaction.mid_output": (
        "some compaction output tables fully written, the rest not started "
        "(orphan outputs; inputs still live)"
    ),
    "compaction.after_outputs": (
        "all compaction outputs written, manifest edit not yet committed "
        "(orphan outputs; inputs still live)"
    ),
    "compaction.before_input_delete": (
        "manifest edit committed, replaced input tables not yet deleted "
        "(orphan inputs)"
    ),
    "manifest.rewrite_before_current": (
        "new snapshot manifest written, CURRENT still names the old one "
        "(orphan new manifest)"
    ),
    "manifest.rewrite_before_delete": (
        "CURRENT repointed to the new manifest, old manifest not yet deleted "
        "(orphan old manifest)"
    ),
    "demote.mid_upload": (
        "some multipart parts of a demotion upload sent, object not visible "
        "(incomplete multipart dropped by the crash; local copy intact)"
    ),
    "demote.before_local_delete": (
        "demoted table fully uploaded, local copy not yet deleted "
        "(table temporarily on both tiers)"
    ),
    "xwal.partial_sync": (
        "a multi-shard write batch synced to some xWAL shards but not all "
        "(per-key prefix consistency must still hold)"
    ),
    "checkpoint.mid_copy": (
        "some checkpoint table objects copied, checkpoint manifest absent "
        "(partial checkpoint must be unrestorable, store unaffected)"
    ),
    "checkpoint.before_manifest": (
        "every checkpoint table copied, checkpoint manifest object absent "
        "(same contract as mid_copy)"
    ),
    "bloblog.append": (
        "blob record appended to the active segment but not synced, and the "
        "WAL pointer that would reference it never written (torn segment "
        "tail truncated at recovery; the op was never acked)"
    ),
    "bloblog.seal_mid_upload": (
        "some multipart parts of a segment seal sent, object not visible "
        "(incomplete multipart dropped by the crash; local segment intact "
        "and re-sealed from the WAL's references at recovery)"
    ),
    "bloblog.seal_before_manifest": (
        "sealed segment object visible in the cloud but absent from the "
        "MANIFEST (recovery adopts it if the replayed memtable references "
        "it, else deletes the orphan)"
    ),
    "bloblog.gc_before_segment_delete": (
        "MANIFEST blob-segment delete committed, segment object not yet "
        "deleted (orphan segment collected at recovery)"
    ),
}


class CrashPointRegistry:
    """Named mid-operation crash sites with deterministic arming.

    Instrumented code calls :meth:`reach` at each site; the call is a no-op
    (plus a hit count) unless that site is armed. Arming with ``skip=k``
    fires on the *(k+1)-th* pass through the site, which lets schedules
    explore "the same crash point, later in the workload". Firing disarms
    the registry so recovery code re-entering the same site does not crash
    again.
    """

    def __init__(self) -> None:
        self.hits: dict[str, int] = {}
        self.fired: str | None = None
        self._armed: str | None = None
        self._skip = 0

    def sites(self) -> list[str]:
        """All registered site names, sorted."""
        return sorted(CRASH_SITES)

    # -- arming -------------------------------------------------------------

    @property
    def armed(self) -> str | None:
        return self._armed

    def arm(self, site: str, *, skip: int = 0) -> None:
        """Fire at the (skip+1)-th reach of ``site``."""
        if site not in CRASH_SITES:
            raise ValueError(f"unknown crash point {site!r}")
        if skip < 0:
            raise ValueError("skip must be >= 0")
        self._armed = site
        self._skip = skip
        self.fired = None

    def disarm(self) -> None:
        self._armed = None
        self._skip = 0

    def reset(self) -> None:
        """Disarm and clear hit counts / fired state (test isolation)."""
        self.disarm()
        self.hits.clear()
        self.fired = None

    # -- the instrumented call ---------------------------------------------

    def reach(self, site: str) -> None:
        """Mark ``site`` reached; raise :class:`CrashPointFired` if armed."""
        if site not in CRASH_SITES:
            raise ValueError(f"crash point {site!r} was never registered")
        self.hits[site] = self.hits.get(site, 0) + 1
        if self._armed != site:
            return
        if self._skip > 0:
            self._skip -= 1
            return
        self.disarm()
        self.fired = site
        raise CrashPointFired(site)


#: Process-wide registry. Instrumented modules call
#: ``crash_points.reach("site")``; disarmed reaches cost one dict increment,
#: so production paths stay effectively free.
crash_points = CrashPointRegistry()


@contextmanager
def armed(site: str, *, skip: int = 0) -> Iterator[CrashPointRegistry]:
    """Arm ``site`` for the duration of a block, disarming on exit."""
    crash_points.arm(site, skip=skip)
    try:
        yield crash_points
    finally:
        crash_points.disarm()
