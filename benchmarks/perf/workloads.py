"""The five workloads: what is loaded, what is measured, how much of it.

Every op stream comes from :func:`repro.workloads.ycsb.iter_ops`, so one
loop drives all five through ``apply_op`` and the store receives nothing
but the generated ops. Op counts are fixed (``ops_per_second`` × the
``--seconds`` argument), not timed: the simulated clock, every counter and
every call count then repeat exactly for a seed, which a run cut off by a
wall-clock deadline would not. A measured run goes over the stream twice
(two replicas, see ``runner.run_measured``), so ``ops_per_second`` is about
half the rate the seed commit sustains (2 cores, CPython 3.11) and the two
passes together last a little under ``--seconds`` there. It is frozen — a
faster store finishes sooner.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bench.harness import HarnessKnobs
from repro.workloads.ycsb import WORKLOAD_A, WORKLOAD_E, YCSBSpec


@dataclass(frozen=True)
class Workload:
    name: str
    spec: YCSBSpec
    """Mix, request distribution and record count; ``operation_count`` is
    set from the run length."""
    ops_per_second: int
    knobs: HarnessKnobs = field(default_factory=HarnessKnobs)
    warm: bool = False
    """One shuffled full pass of ``get`` before measuring, so every block
    the reads need is already admitted to the persistent cache."""
    crash_check: bool = False
    """End with ``reopen(crash=True)`` and read back every acknowledged key."""

    def ops_for(self, seconds: float) -> int:
        return max(1, round(self.ops_per_second * seconds))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Write path only: memtable, xWAL, flush, compaction, demotion upload.
        Workload(
            "fill_random",
            YCSBSpec(
                "fill_random",
                update_proportion=1.0,
                request_distribution="uniform",
                record_count=20_000,
            ),
            ops_per_second=250,
            crash_check=True,
        ),
        # Working set fits the persistent cache (464 KB of records, 2 MiB
        # budget, 14 x the DRAM block cache): the local tier serves every read.
        Workload(
            "read_local",
            YCSBSpec("read_local", read_proportion=1.0, record_count=4_000),
            ops_per_second=2_200,
            knobs=HarnessKnobs(pcache_budget_bytes=2 << 20),
            warm=True,
        ),
        # Working set (2.3 MB) is 14 x DRAM + persistent cache and the
        # requests are uniform: almost every read is a cloud GET.
        Workload(
            "read_cloud",
            YCSBSpec(
                "read_cloud",
                read_proportion=1.0,
                request_distribution="uniform",
                record_count=20_000,
            ),
            ops_per_second=3_700,
        ),
        # Reads beside writes on one tree: compaction invalidates and
        # re-warms the caches, flush stalls land in read tails. Zipfian
        # theta is 0.8, not YCSB's 0.99: with 0.99 a handful of keys takes
        # most updates and whether a large L1->L2 compaction falls inside
        # the window is chaotic (simulated throughput differed by 10 %
        # between seeds, against 1.2 % at 0.8, where the top tenth of the
        # keys still draws 63 % of the requests).
        Workload(
            "mixed_a",
            replace(WORKLOAD_A.scaled(20_000, 0), zipf_theta=0.8),
            ops_per_second=720,
            crash_check=True,
        ),
        # Range path: merging iterator, readahead, block decode per row.
        Workload("scan_e", WORKLOAD_E.scaled(20_000, 0), ops_per_second=520),
    )
}
