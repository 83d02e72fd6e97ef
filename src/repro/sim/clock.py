"""Deterministic simulated clock.

All device "performance" in this reproduction is virtual time charged to a
:class:`SimClock`. Operations call :meth:`SimClock.advance` with the modelled
duration of an I/O; experiment harnesses read :attr:`SimClock.now` before and
after a workload to compute simulated throughput and latency.

Modelled parallelism uses *fork/join*: :meth:`fork` creates child clocks
that start at the parent's current time and accumulate independently;
:meth:`join` advances the parent to the **latest** child time. This is how
the extended WAL's parallel recovery and concurrent cloud fetches are timed
without real threads, keeping every figure deterministic.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from contextlib import AbstractContextManager, ExitStack, contextmanager
from dataclasses import dataclass
from typing import Protocol


@dataclass
class SimClock:
    """A monotonically advancing virtual clock measured in seconds."""

    now: float = 0.0

    def advance(self, seconds: float) -> float:
        """Advance the clock by a non-negative duration; returns new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative {seconds}")
        self.now += seconds
        return self.now

    def fork(self, n: int) -> list["SimClock"]:
        """Create ``n`` child clocks starting at the current time."""
        if n < 1:
            raise ValueError("fork requires at least one child")
        return [SimClock(now=self.now) for _ in range(n)]

    def child(self, start: float | None = None) -> "SimClock":
        """One child clock, optionally starting at a different timestamp.

        A *past* ``start`` models work that could have begun earlier and ran
        concurrently with what the parent was doing since — e.g. uploading a
        compaction output file while the merge kept producing the next one.
        A *future* ``start`` models work queued behind a busy slot (an
        upload waiting for a free connection). Joining via :meth:`merge`
        keeps the parent monotonic either way; ``start`` itself must be
        non-negative.
        """
        if start is None:
            start = self.now
        if start < 0:
            raise ValueError(f"child cannot start before time zero ({start})")
        return SimClock(now=start)

    def join(self, children: list["SimClock"]) -> float:
        """Advance this clock to the latest child time (barrier semantics).

        Children that never advanced leave the parent unchanged. It is an
        error for a child to be behind the fork point (clocks never rewind).
        """
        if not children:
            return self.now
        latest = max(child.now for child in children)
        if latest < self.now:
            raise ValueError("child clock is behind parent; clocks cannot rewind")
        self.now = latest
        return self.now

    def merge(self, children: list["SimClock"]) -> float:
        """Overlap-tolerant join: advance to the latest child *if later*.

        Unlike :meth:`join`, children created via :meth:`child` at an
        earlier timestamp may finish before the parent's current time —
        their work fully overlapped something already accounted — and the
        parent simply does not move.
        """
        if children:
            self.now = max(self.now, max(child.now for child in children))
        return self.now


class ClockCharged:
    """Mixin for objects that charge I/O to a swappable ``clock`` attribute.

    :meth:`clock_scope` is the *only* sanctioned way to temporarily charge a
    device's I/O to a different (forked child) clock. The save/restore is
    stack-disciplined, so scopes nest arbitrarily (a fork inside a fork
    restores the intermediate clock, not the root) and an exception inside
    the scope cannot leave the device stuck on a child clock.
    """

    clock: SimClock

    @contextmanager
    def clock_scope(self, clock: SimClock) -> Iterator[SimClock]:
        saved = self.clock
        self.clock = clock
        try:
            yield clock
        finally:
            self.clock = saved


class JoinParticipant(Protocol):
    """Anything that scopes onto branch clocks and folds back at join.

    The tier-attribution :class:`~repro.obs.trace.Tracer` is the canonical
    implementation; the protocol keeps :mod:`repro.sim` free of an import
    cycle with :mod:`repro.obs`.
    """

    def clock_scope(self, clock: SimClock) -> AbstractContextManager[SimClock]: ...

    def absorb_join(self, children: list[SimClock], delta: float) -> None: ...


class ForkJoinRegion:
    """Structured fork/join over a parent clock and its charged devices.

    Each :meth:`branch` yields a child clock and, for its duration, points
    every host (objects with ``clock_scope``, e.g. the local device and the
    cloud store) at that child, so all I/O inside the branch accumulates on
    the child. :meth:`join` advances the parent to the slowest child.
    Branches run one after another in real execution — determinism — while
    the clock accounting models them as concurrent. Regions nest: a branch
    may open its own ``ForkJoinRegion`` on the child clock. With ``slots=n``
    at most ``n`` branches overlap: a branch queues for the earliest free
    slot, as a client's requests queue for a free connection.

    Example::

        region = ForkJoinRegion(clock, [local_device, cloud_store])
        for task in tasks:
            with region.branch():
                task()          # I/O charged to this branch's child clock
        region.join()           # parent advances to the slowest branch
    """

    def __init__(self, parent: SimClock, hosts: list[ClockCharged], *, slots: int = 0) -> None:
        self.parent = parent
        self.hosts = hosts
        self.children: list[SimClock] = []
        self._free_at = [0.0] * slots  # a min-heap of the slots' free times
        # Tier-attribution tracers ride along with their devices: any host
        # carrying a ``tracer`` joins branch scopes too, so charges made
        # inside a branch collect per-branch and fold back at join with
        # critical-path attribution (see repro.obs.trace).
        self._tracers: list[JoinParticipant] = []
        for host in hosts:
            tracer = getattr(host, "tracer", None)
            if tracer is not None and all(tracer is not t for t in self._tracers):
                self._tracers.append(tracer)

    @contextmanager
    def branch(self, start: float | None = None) -> Iterator[SimClock]:
        """Run one concurrent task; ``start`` may back-date it (see
        :meth:`SimClock.child`); with ``slots``, it waits for the earliest
        free slot and holds it until the task ends."""
        if self._free_at:
            start = max(self.parent.now if start is None else start, self._free_at[0])
        child = self.parent.child(start)
        self.children.append(child)
        with ExitStack() as stack:
            for host in self.hosts:
                stack.enter_context(host.clock_scope(child))
            for tracer in self._tracers:
                stack.enter_context(tracer.clock_scope(child))
            yield child
        if self._free_at:
            heapq.heapreplace(self._free_at, child.now)

    def join(self, *, strict: bool = True) -> float:
        """Advance the parent to the slowest branch.

        ``strict=False`` uses :meth:`SimClock.merge` semantics for regions
        with back-dated branches (overlapped work may finish "in the past").
        """
        before = self.parent.now
        if strict:
            result = self.parent.join(self.children)
        else:
            result = self.parent.merge(self.children)
        for tracer in self._tracers:
            tracer.absorb_join(self.children, self.parent.now - before)
        return result


class StopwatchRegion:
    """Context manager measuring elapsed *simulated* time over a region.

    Example::

        with StopwatchRegion(clock) as sw:
            db.get(b"key")
        latency = sw.elapsed
    """

    __slots__ = ("_clock", "_start", "elapsed")

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "StopwatchRegion":
        self._start = self._clock.now
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = self._clock.now - self._start
