"""E12 — ablations of each design mechanism.

Expected shape: removing metadata pinning costs read throughput (extra
cloud round trips for index/filter); shrinking the local share
(cloud-level-1) costs heavily; disabling scan readahead costs on the
scan-heavy workload; the xWAL shard count is throughput-neutral (its
benefit is recovery, E6); naive invalidation costs on this mix too —
compaction's input reads leave the caches alone, so what serves the reads is
the working set the layout carries across compactions (E8 isolates it
between compaction bursts).
"""

from benchmarks.conftest import run_experiment
from repro.bench.experiments import e12_ablations


def test_e12_ablations(benchmark):
    table = run_experiment(benchmark, e12_ablations)

    def pct(variant):
        idx = table.headers.index("vs_full_%")
        for row in table.rows:
            if row[0] == variant:
                return row[idx]
        raise KeyError(variant)

    assert pct("no-metadata-pinning") < 97.0
    assert pct("cloud-level-1 (less local)") < 70.0
    assert pct("no-scan-readahead") < 95.0
    assert 90.0 < pct("xwal-1-shard") < 110.0  # throughput-neutral
    assert pct("naive-invalidation") < 95.0  # the layout keeps the working set
