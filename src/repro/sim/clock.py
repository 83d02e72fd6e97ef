"""Deterministic simulated clock.

All device "performance" in this reproduction is virtual time charged to a
:class:`SimClock`. Operations call :meth:`SimClock.advance` with the modelled
duration of an I/O and the tier it was spent on; experiment harnesses read
:attr:`SimClock.now` before and after a workload to compute simulated
throughput and latency.

Each store (and each sharded node) runs on **one** clock: its devices, its
tracer and every fork site hold that one object, and nothing re-points a
``clock`` attribute. The tracer attached to the clock (``clock.tracer``)
receives every charge, so a span's tier attribution sums to its elapsed
time by construction.

Modelled parallelism uses *fork/join* on that clock
(:class:`ForkJoinRegion`): a branch runs from its own start time, records
where it ended and hands the parent's time back; the join moves the clock
to the **latest** branch end. A request of the open-loop serving layer runs
the same way (:meth:`SimClock.scope`). This is how the extended WAL's
parallel recovery and concurrent cloud fetches are timed without real
threads, keeping every figure deterministic.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.trace import Tracer, _Frame


@dataclass
class SimClock:
    """A monotonically advancing virtual clock measured in seconds."""

    now: float = 0.0
    tracer: Tracer | None = field(default=None, repr=False, compare=False)
    """Receives every charge (:meth:`advance`); a store's facade attaches
    its own, and ``None`` leaves charges unattributed."""

    def advance(self, seconds: float, tier: str) -> float:
        """Advance the clock by a non-negative duration spent on ``tier``
        (``"local"``, ``"cloud"`` or ``"cpu"``), charged to the attached
        tracer; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative {seconds}")
        self.now += seconds
        if self.tracer is not None:
            self.tracer.charge(tier, seconds)
        return self.now

    @contextmanager
    def scope(self, other: "SimClock") -> Iterator["SimClock"]:
        """Run this clock on ``other``'s time, then hand the time back.

        On entry this clock takes ``other``'s time; on exit (an exception
        included) ``other`` takes this clock's time and this clock gets its
        own back. Scopes nest: an inner one restores the outer one's time.
        """
        saved = self.now
        self.now = other.now
        try:
            yield self
        finally:
            other.now = self.now
            self.now = saved

    def child(self, start: float | None = None) -> "SimClock":
        """One child clock, optionally starting at a different timestamp.

        ``start`` must be non-negative. A child has no tracer: the serving
        layer uses one as a request's timeline (:meth:`scope`), starting at
        the request's service time, and :meth:`join` states the fork/join
        laws over children that :class:`ForkJoinRegion` keeps on one clock.
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


@dataclass(slots=True)
class Branch:
    """One run branch of a :class:`ForkJoinRegion`: where its clock ended."""

    end: float
    frame: _Frame | None
    """The tracer's record of the branch's charges (``None`` untraced)."""


class ForkJoinRegion:
    """Structured fork/join on one clock.

    Each :meth:`branch` sets the clock to the branch's start and yields it,
    so all I/O inside the branch accumulates from there; when the branch
    ends, the region records where the clock stood and puts back the
    parent's time. :meth:`join` moves the clock to the latest branch end.
    Branches run one after another in real execution — determinism — while
    the clock accounting models them as concurrent. Regions nest: a branch
    may open its own ``ForkJoinRegion``. With ``slots=n`` at most ``n``
    branches overlap: a branch queues for the earliest free slot, as a
    client's requests queue for a free connection.

    A tracer attached to the clock collects each branch's charges on a
    branch frame, and the join folds them back with critical-path
    attribution (:meth:`repro.obs.trace.Tracer.absorb_join`).

    Example::

        region = ForkJoinRegion(clock)
        for task in tasks:
            with region.branch():
                task()          # I/O charged from the branch's start
        region.join()           # clock moves to the slowest branch's end
    """

    def __init__(self, clock: SimClock, *, slots: int = 0) -> None:
        self.clock = clock
        self.branches: list[Branch] = []
        self._free_at = [0.0] * slots  # a min-heap of the slots' free times

    @contextmanager
    def branch(self, start: float | None = None) -> Iterator[SimClock]:
        """Run one concurrent task from ``start`` (default: the parent's
        time). A past ``start`` models work that could have begun earlier
        and ran alongside what the parent did since — uploading a finished
        compaction output while the merge goes on. With ``slots``, the task
        also waits for the earliest free slot and holds it until it ends."""
        clock = self.clock
        parent = clock.now
        if self._free_at:
            start = max(parent if start is None else start, self._free_at[0])
        elif start is None:
            start = parent
        if start < 0:
            raise ValueError(f"a branch cannot start before time zero ({start})")
        tracer = clock.tracer
        frame = tracer.open_branch() if tracer is not None else None
        clock.now = start
        try:
            yield clock
        finally:
            end = clock.now
            clock.now = parent
            if tracer is not None:
                assert frame is not None
                tracer.close_branch(frame)
            self.branches.append(Branch(end, frame))
        if self._free_at:
            heapq.heapreplace(self._free_at, end)

    def latest_end(self) -> float | None:
        """Where the slowest branch ended; ``None`` before any ran."""
        return max(branch.end for branch in self.branches) if self.branches else None

    def join(self, *, strict: bool = True) -> float:
        """Move the clock to the slowest branch's end.

        ``strict=False`` tolerates back-dated branches that ended before the
        clock's time (overlapped work may finish "in the past"): the clock
        then does not move.
        """
        clock = self.clock
        before = clock.now
        latest = self.latest_end()
        if latest is not None:
            if strict and latest < before:
                raise ValueError("a branch ended before the parent; clocks cannot rewind")
            clock.now = max(before, latest)
        if clock.tracer is not None:
            clock.tracer.absorb_join(self.branches, clock.now - before)
        return clock.now


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
