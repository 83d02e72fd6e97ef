"""Tier-attributed tracing over the simulated clock.

A :class:`Tracer` records nested :class:`TraceSpan`s — op label, start/end
on the :class:`~repro.sim.clock.SimClock`, and a :class:`TierTimes` vector
saying where the span's simulated time went: the local device, the cloud,
or CPU/apply cost. Spans land in a bounded ring buffer with JSONL export.

Attribution works by mirroring every charge site: each ``clock.advance`` in
the storage backends also calls :meth:`Tracer.charge` with the same seconds
and a tier label, which accumulates on the innermost open frame. Fork/join
parallelism (:class:`~repro.sim.clock.ForkJoinRegion`) is handled by the
tracer participating in branch scopes like any clock-charged host: each
branch's charges collect on a branch frame, and at join the region reports
how far the *parent* clock actually advanced. The tracer then attributes
exactly that delta using the critical-path branch's tier mix — so the
conservation invariant

    span.tiers.local + span.tiers.cloud + span.tiers.cpu == span.elapsed

holds exactly (to float rounding) even when branches overlap, back-date, or
fully hide behind already-accounted work.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.sim.clock import SimClock

TIERS = ("local", "cloud", "cpu")


@dataclass(slots=True)
class TierTimes:
    """Simulated seconds split by where they were spent."""

    local: float = 0.0
    cloud: float = 0.0
    cpu: float = 0.0

    def add(self, tier: str, seconds: float) -> None:
        if tier == "local":
            self.local += seconds
        elif tier == "cloud":
            self.cloud += seconds
        elif tier == "cpu":
            self.cpu += seconds
        else:
            raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")

    def merge(self, other: "TierTimes", scale: float = 1.0) -> None:
        self.local += other.local * scale
        self.cloud += other.cloud * scale
        self.cpu += other.cpu * scale

    def total(self) -> float:
        return self.local + self.cloud + self.cpu

    def as_dict(self) -> dict[str, float]:
        return {"local": self.local, "cloud": self.cloud, "cpu": self.cpu}


@dataclass(slots=True)
class TraceSpan:
    """One traced operation; ``parent_id == 0`` marks a root span."""

    op: str
    span_id: int
    parent_id: int
    depth: int
    start: float
    end: float = 0.0
    tiers: TierTimes = field(default_factory=TierTimes)
    cloud_ops: int = 0
    events: list[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "local_s": self.tiers.local,
            "cloud_s": self.tiers.cloud,
            "cpu_s": self.tiers.cpu,
            "cloud_ops": self.cloud_ops,
            "events": list(self.events),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TraceSpan":
        return cls(
            op=d["op"],
            span_id=d["id"],
            parent_id=d["parent"],
            depth=d["depth"],
            start=d["start"],
            end=d["end"],
            tiers=TierTimes(local=d["local_s"], cloud=d["cloud_s"], cpu=d["cpu_s"]),
            cloud_ops=d["cloud_ops"],
            events=list(d["events"]),
        )


def span_conserved(span: TraceSpan, *, rel_tol: float = 1e-9, abs_tol: float = 1e-9) -> bool:
    """Does the span's tier attribution sum to its stopwatch elapsed time?"""
    drift = abs(span.tiers.total() - span.elapsed)
    return drift <= abs_tol + rel_tol * max(1.0, abs(span.elapsed))


def summarize_spans(spans: Iterable[TraceSpan]) -> dict[str, Any]:
    """Aggregate a span collection for report tables.

    Returns per-span means of the tier components plus the mean cloud
    request count, and whether conservation held on every span.
    """
    spans = list(spans)
    n = len(spans)
    if n == 0:
        return {
            "spans": 0,
            "local_s": 0.0,
            "cloud_s": 0.0,
            "cpu_s": 0.0,
            "elapsed_s": 0.0,
            "cloud_ops": 0.0,
            "conserved": True,
        }
    return {
        "spans": n,
        "local_s": sum(s.tiers.local for s in spans) / n,
        "cloud_s": sum(s.tiers.cloud for s in spans) / n,
        "cpu_s": sum(s.tiers.cpu for s in spans) / n,
        "elapsed_s": sum(s.elapsed for s in spans) / n,
        "cloud_ops": sum(s.cloud_ops for s in spans) / n,
        "conserved": all(span_conserved(s) for s in spans),
    }


class _Frame:
    """Accumulator for one open span or branch scope.

    Returned by :meth:`Tracer.span` it is also the span's context manager:
    entering stamps the span and pushes the frame, leaving folds it into the
    enclosing frame. The span shares the frame's ``tiers`` and ``events``,
    so nothing is copied when it closes.
    """

    __slots__ = ("tracer", "op", "span", "tiers", "cloud_ops", "events", "pending")

    def __init__(self, tracer: "Tracer | None" = None, op: str = "") -> None:
        self.tracer = tracer
        self.op = op
        self.span: TraceSpan | None = None  # stays None for fork/join branch frames
        self.tiers = TierTimes()
        self.cloud_ops = 0
        self.events: list[str] = []
        self.pending: list[_Branch] = []

    def __enter__(self) -> TraceSpan:
        tracer = self.tracer
        assert tracer is not None
        parent = None
        for frame in reversed(tracer._stack):
            if frame.span is not None:  # branch frames carry no span
                parent = frame.span
                break
        span = self.span = TraceSpan(
            self.op,
            tracer._next_id,
            parent.span_id if parent is not None else 0,
            parent.depth + 1 if parent is not None else 0,
            tracer.clock.now,
            0.0,
            self.tiers,
            0,
            self.events,
        )
        tracer._next_id += 1
        tracer._stack.append(self)
        return span

    def __exit__(self, *exc: object) -> None:
        tracer = self.tracer
        span = self.span
        assert tracer is not None and span is not None
        stack = tracer._stack
        stack.pop()
        span.end = tracer.clock.now
        span.cloud_ops = self.cloud_ops
        if stack:
            # Child time is part of the parent's elapsed time too.
            top = stack[-1]
            top.tiers.merge(self.tiers)
            top.cloud_ops += self.cloud_ops
        if len(tracer.spans) == tracer.capacity:
            tracer.dropped_spans += 1
        tracer.spans.append(span)


@dataclass
class _Branch:
    """A closed branch scope awaiting its region's join."""

    clock: SimClock
    start: float
    frame: _Frame


class Tracer:
    """Span recorder + tier accountant for one store's simulated clock.

    The tracer exposes ``clock`` and ``clock_scope`` like a clock-charged
    device, so :class:`~repro.sim.clock.ForkJoinRegion` can swap it onto a
    branch's child clock — span timestamps taken inside a branch then read
    the branch's clock, and the branch's charges collect on a private frame
    until :meth:`absorb_join` folds them back critical-path-scaled.
    """

    def __init__(self, clock: SimClock, capacity: int = 2048) -> None:
        self.clock = clock
        self.capacity = capacity
        self.spans: deque[TraceSpan] = deque(maxlen=capacity)
        self.dropped_spans = 0
        self.totals = TierTimes()  # device-busy seconds across all charges
        self.unattributed = TierTimes()  # charges outside any span
        self.total_cloud_ops = 0
        self.event_counts: dict[str, int] = {}
        self._stack: list[_Frame] = []
        self._next_id = 1

    # -- charge sites (called from the storage backends) -------------------

    def charge(self, tier: str, seconds: float) -> None:
        """Mirror one ``clock.advance(seconds)`` with its tier label."""
        if seconds < 0:
            raise ValueError(f"negative charge {seconds}")
        stack = self._stack
        totals = self.totals
        frame = stack[-1].tiers if stack else self.unattributed
        if tier == "local":
            totals.local += seconds
            frame.local += seconds
        elif tier == "cloud":
            totals.cloud += seconds
            frame.cloud += seconds
        elif tier == "cpu":
            totals.cpu += seconds
            frame.cpu += seconds
        else:
            raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")

    def count_cloud_op(self) -> None:
        """Tally one cloud request (a round trip, retries included)."""
        self.total_cloud_ops += 1
        if self._stack:
            self._stack[-1].cloud_ops += 1

    def event(self, label: str) -> None:
        """Annotate the current span with a path event (e.g. ``dram_hit``)."""
        self.event_counts[label] = self.event_counts.get(label, 0) + 1
        if self._stack:
            self._stack[-1].events.append(label)

    def event_count(self, label: str) -> int:
        """Total occurrences of a path event across the tracer's lifetime.

        Unlike per-span event lists, this survives ring-buffer eviction and
        counts events fired outside any span (e.g. a prefetch branch the
        scan abandoned) — experiments use it for hit/waste accounting.
        """
        return self.event_counts.get(label, 0)

    # -- spans --------------------------------------------------------------

    def span(self, op: str) -> _Frame:
        """A context manager recording one :class:`TraceSpan` named ``op``
        (``with tracer.span("get") as span``), stamped when it is entered."""
        return _Frame(self, op)

    # -- per-request reentrancy --------------------------------------------

    @contextmanager
    def request_scope(self, clock: SimClock) -> Iterator[SimClock]:
        """Serve one simulated request on its own clock *and* span stack.

        The open-loop serving layer executes many in-flight requests whose
        simulated lifetimes overlap; a single shared frame stack would nest
        their spans into whichever request happened to be executing around
        them. This scope swaps in a fresh stack (so spans opened inside are
        roots, parented only to spans of the same request) and points span
        timestamps at the request's child clock. Totals still accumulate
        globally; charges made inside with no open span fall back to
        ``unattributed`` exactly as they do on the shared stack.
        """
        saved_clock = self.clock
        saved_stack = self._stack
        self.clock = clock
        self._stack = []
        try:
            yield clock
        finally:
            for frame in self._stack:  # only non-empty on exception unwind
                self.unattributed.merge(frame.tiers)
            self.clock = saved_clock
            self._stack = saved_stack

    # -- fork/join participation -------------------------------------------

    @contextmanager
    def clock_scope(self, clock: SimClock) -> Iterator[SimClock]:
        """Collect charges made inside a fork/join branch on a branch frame."""
        saved = self.clock
        self.clock = clock
        frame = _Frame()
        start = clock.now
        self._stack.append(frame)
        try:
            yield clock
        finally:
            self._stack.pop()
            self.clock = saved
            if self._stack:
                self._stack[-1].pending.append(_Branch(clock, start, frame))
            else:
                self.unattributed.merge(frame.tiers)

    def absorb_join(self, children: list[SimClock], delta: float) -> None:
        """Fold joined branches into the enclosing frame.

        ``delta`` is how far the parent clock advanced at the join. The
        wall time a region adds to its parent is set by the critical-path
        branch, so exactly ``delta`` seconds are attributed using that
        branch's tier proportions (a branch with no charges — pure queueing
        — attributes to cpu). Cloud request counts and path events from
        *every* branch are preserved: the requests really happened even
        when their latency hid behind the slowest branch.
        """
        if not self._stack:
            return
        frame = self._stack[-1]
        ids = {id(child) for child in children}
        branches = [b for b in frame.pending if id(b.clock) in ids]
        if not branches:
            if delta > 0:
                frame.tiers.add("cpu", delta)
            return
        frame.pending = [b for b in frame.pending if id(b.clock) not in ids]
        for branch in branches:
            frame.cloud_ops += branch.frame.cloud_ops
            frame.events.extend(branch.frame.events)
        if delta <= 0:
            return  # fully overlapped: the region cost the parent no time
        critical = max(branches, key=lambda b: b.clock.now)
        busy = critical.frame.tiers.total()
        if busy > 0:
            frame.tiers.merge(critical.frame.tiers, scale=delta / busy)
        else:
            frame.tiers.add("cpu", delta)

    # -- export -------------------------------------------------------------

    def export_jsonl(self) -> str:
        """The ring buffer as one JSON object per line (oldest first)."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True) for s in self.spans)

    @staticmethod
    def spans_from_jsonl(text: str) -> list[TraceSpan]:
        return [
            TraceSpan.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
