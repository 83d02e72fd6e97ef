"""Prometheus text-format exposition of a store's metrics.

Renders the store's :class:`~repro.metrics.counters.CounterSet`, its latency
histograms (as Prometheus summaries with p50/p90/p99 quantiles), the
tracer's tier-busy totals and, as gauges, every other number of
``StoreFacade.metrics`` into the plain text format a ``/metrics`` endpoint
would serve. Everything is derived from simulated time, so two identical
runs produce byte-identical expositions.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.metrics.counters import CounterSet
    from repro.metrics.latency import LatencyHistogram
    from repro.obs.trace import Tracer

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(
    *,
    counters: CounterSet | None = None,
    histograms: dict[str, LatencyHistogram] | None = None,
    tracer: Tracer | None = None,
    gauges: dict[str, int | float] | None = None,
    prefix: str = "repro",
) -> str:
    """Render metrics in the Prometheus text exposition format.

    ``counters`` is a CounterSet (iterable of (name, value)); ``histograms``
    maps a metric base name to a LatencyHistogram; ``tracer`` contributes
    tier-busy seconds, cloud request totals, event counts, and ring-buffer
    health; ``gauges`` maps a flat metric name (``blocks.dram``) to its
    current value, rendered as ``<prefix>_blocks_dram``.
    """
    lines: list[str] = []

    if counters is not None:
        for name, value in counters:
            metric = f"{prefix}_{_sanitize(name)}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")

    for base, histogram in (histograms or {}).items():
        metric = f"{prefix}_{_sanitize(base)}"
        lines.append(f"# TYPE {metric} summary")
        for q in (0.5, 0.9, 0.99):
            lines.append(
                f'{metric}{{quantile="{q}"}} {_fmt(histogram.percentile(q * 100))}'
            )
        lines.append(f"{metric}_sum {_fmt(histogram.total)}")
        lines.append(f"{metric}_count {histogram.count}")

    for name, value in (gauges or {}).items():
        metric = f"{prefix}_{_sanitize(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")

    if tracer is not None:
        busy = f"{prefix}_tier_busy_seconds_total"
        lines.append(f"# TYPE {busy} counter")
        for tier, seconds in tracer.totals.as_dict().items():
            lines.append(f'{busy}{{tier="{tier}"}} {_fmt(seconds)}')
        cloud = f"{prefix}_cloud_requests_total"
        lines.append(f"# TYPE {cloud} counter")
        lines.append(f"{cloud} {tracer.total_cloud_ops}")
        if tracer.event_counts:
            events = f"{prefix}_trace_events_total"
            lines.append(f"# TYPE {events} counter")
            for label in sorted(tracer.event_counts):
                lines.append(
                    f'{events}{{event="{_sanitize(label)}"}} {tracer.event_counts[label]}'
                )
        spans = f"{prefix}_trace_spans"
        lines.append(f"# TYPE {spans} gauge")
        lines.append(f"{spans} {len(tracer.spans)}")
        dropped = f"{prefix}_trace_spans_dropped_total"
        lines.append(f"# TYPE {dropped} counter")
        lines.append(f"{dropped} {tracer.dropped_spans}")

    return "\n".join(lines) + "\n"
