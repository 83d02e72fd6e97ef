"""Latency/bandwidth models for simulated devices.

Each device charges ``base_latency + transferred_bytes / bandwidth`` per
operation; the cloud store additionally pays a per-request round trip. The
defaults below are calibrated to commodity 2021-era hardware and public
S3-class service numbers so that the *ratios* driving the paper's results
(cloud read ≈ 100–500× local read latency; cloud ≈ 5–10× cheaper per GB)
hold. Absolute values are not the reproduction target (see DESIGN.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """Charges for a single device operation.

    Attributes:
        read_latency: fixed seconds per read operation (seek/RTT component).
        write_latency: fixed seconds per write operation.
        read_bandwidth: bytes/second streamed after the fixed cost.
        write_bandwidth: bytes/second for writes.
    """

    read_latency: float
    write_latency: float
    read_bandwidth: float
    write_bandwidth: float

    def read_cost(self, nbytes: int) -> float:
        """Simulated seconds to read ``nbytes``."""
        return self.read_latency + nbytes / self.read_bandwidth

    def write_cost(self, nbytes: int) -> float:
        """Simulated seconds to write ``nbytes``."""
        return self.write_latency + nbytes / self.write_bandwidth


def nvme_ssd() -> LatencyModel:
    """Local NVMe SSD: ~80 µs access, ~2 GB/s."""
    return LatencyModel(
        read_latency=80e-6,
        write_latency=100e-6,
        read_bandwidth=2.0e9,
        write_bandwidth=1.5e9,
    )


def cloud_object_storage(rtt: float = 15e-3) -> LatencyModel:
    """S3-class object storage: ``rtt`` per request, ~80 MB/s per stream.

    Args:
        rtt: request round-trip time in seconds. 15 ms is an intra-region
            first-byte latency; benchmarks sweep this in experiment E10.
    """
    return LatencyModel(
        read_latency=rtt,
        write_latency=rtt,
        read_bandwidth=80e6,
        write_bandwidth=60e6,
    )
