"""Observability: tier-attributed tracing and metrics export.

:mod:`repro.obs.trace` — the :class:`Tracer` records nested spans on the
simulated clock and attributes every charged second to a tier (local device,
cloud, CPU/apply), with exact conservation even across fork/join regions.

:mod:`repro.obs.prom` — Prometheus text exposition of counters, latency
histograms, tracer totals and, as gauges, the rest of the store's flat
``metrics()`` (``StoreFacade.dump_metrics``).
"""

from repro.obs.trace import (
    TierTimes,
    TraceSpan,
    Tracer,
    span_conserved,
    summarize_spans,
)

__all__ = [
    "TierTimes",
    "TraceSpan",
    "Tracer",
    "span_conserved",
    "summarize_spans",
]
