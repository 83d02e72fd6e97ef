"""E18 (extension) — parallel subcompactions + coalesced compaction I/O.

Expected shape: every input is read in one sequential pass (one ranged GET
per cloud input, not one per block), and a merge issues those reads as
concurrent requests before it starts; partitioning the merge across
subcompaction clocks then divides the remaining merge and write time. The
DB contents are byte-identical in every configuration (the digest column),
and the whole pipeline is deterministic — running a configuration twice
reproduces the same simulated seconds to the femtosecond.

Writes ``BENCH_e18.json`` (simulated compaction seconds per parallelism)
so CI archives a machine-readable artifact alongside the table.
"""

import json
import pathlib

from benchmarks.conftest import run_experiment
from repro.bench.experiments import e18_parallel_compaction

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e18.json"


def test_e18_parallel_compaction(benchmark):
    table = run_experiment(benchmark, e18_parallel_compaction)
    idx = table.headers.index
    rows = {
        parallelism: table.row_by("config", f"subcompactions={parallelism}")
        for parallelism in (1, 2, 4, 8)
    }

    # Identical DB contents in every configuration.
    digests = {row[idx("content_digest")] for row in rows.values()}
    assert len(digests) == 1
    assert rows[1][idx("coalesced_fetches")] > 0

    # Subcompactions: >= 1.3x simulated speedup at parallelism 4 vs 1
    # (1.51x measured). It was 2.29x while a serial merge fetched its inputs
    # one after another; now every merge fetches them concurrently, so
    # partitions divide only the merge and writes, and each partition
    # re-fetches the opening range of every input it spans.
    seconds = {p: row[idx("compact_seconds")] for p, row in rows.items()}
    assert seconds[4] * 1.3 <= seconds[1]
    # More parallelism never makes it worse than serial (8 is slower than 4:
    # diminishing returns are fine, regression past the serial time is not).
    assert seconds[8] < seconds[1]

    # Upload overlap recovered simulated time in every configuration.
    assert all(row[idx("upload_overlap_saved_s")] > 0 for row in rows.values())

    # Determinism: a second run reproduces the table exactly.
    again = e18_parallel_compaction()
    assert again.rows == table.rows

    ARTIFACT.write_text(
        json.dumps(
            {
                "experiment": "e18_parallel_compaction",
                "unit": "simulated seconds for compact_range",
                "compact_seconds_by_parallelism": {
                    str(p): seconds[p] for p in sorted(seconds)
                },
                "cloud_gets_by_parallelism": {
                    str(p): rows[p][idx("cloud_gets")] for p in sorted(rows)
                },
                "content_digest": rows[1][idx("content_digest")],
            },
            indent=2,
        )
        + "\n"
    )
