"""Simulation substrate: virtual clock, device latency models, faults."""

from repro.sim.clock import SimClock, StopwatchRegion
from repro.sim.failure import FaultInjector, RetryPolicy
from repro.sim.latency import LatencyModel, cloud_object_storage, nvme_ssd

__all__ = [
    "FaultInjector",
    "LatencyModel",
    "RetryPolicy",
    "SimClock",
    "StopwatchRegion",
    "cloud_object_storage",
    "nvme_ssd",
]
