"""E24 — global sorted view vs the merging iterator on cloud-resident reads.

Expected shape: with metadata pinning off (the cold-cluster-restart
regime), a cold seek through the merging iterator pays footer + index +
filter cloud round trips per overlapping table before the first key comes
back, while the sorted view resolves the seek with one binary search over
its anchor array and fetches data blocks directly — so the view wins cold
seek+scan latency by ~3x, wins cold long-scan latency, and issues fewer
cloud GETs per long scan. The ``digest`` column proves every scan returns
byte-identical results in both modes, and the YCSB-A rows bound the
view-maintenance overhead (an in-memory incremental rebuild at every flush
and compaction, which the simulated clock does not charge) on an
update-heavy workload.

Writes ``BENCH_e24.json`` so CI archives a machine-readable artifact
alongside the table.
"""

import json
import pathlib

from benchmarks.conftest import run_experiment
from repro.bench.experiments import e24_sorted_view

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e24.json"


def test_e24_sorted_view(benchmark):
    table = run_experiment(benchmark, e24_sorted_view)
    idx = table.headers.index
    rows = {(row[idx("phase")], row[idx("mode")]): row for row in table.rows}
    assert set(rows) == {
        ("cold", "merge"),
        ("warm", "merge"),
        ("cold", "view"),
        ("warm", "view"),
        ("ycsb-a", "merge"),
        ("ycsb-a", "view"),
    }

    # Identical bytes served: every scan phase digest matches across modes,
    # and the YCSB outcome digest (every get/scan result in op order)
    # matches too — the view moves requests, never data.
    for phase in ("cold", "warm"):
        assert rows[(phase, "view")][idx("digest")] == rows[(phase, "merge")][
            idx("digest")
        ]
    assert rows[("ycsb-a", "view")][idx("digest")] == rows[("ycsb-a", "merge")][
        idx("digest")
    ]

    # The headline: cold seeks skip the per-table metadata round trips.
    cold_view, cold_merge = rows[("cold", "view")], rows[("cold", "merge")]
    assert cold_view[idx("seek_scan_ms")] < cold_merge[idx("seek_scan_ms")] / 2
    # Cold long scans are faster through the view and issue fewer GETs —
    # the block map replaces opens, it does not add speculative fetches.
    assert cold_view[idx("long_scan_s")] < cold_merge[idx("long_scan_s")]
    assert cold_view[idx("gets_long")] < cold_merge[idx("gets_long")]

    # Warm readers close most of the gap for the merge path; the view must
    # at least stay competitive once metadata costs are amortised.
    warm_view, warm_merge = rows[("warm", "view")], rows[("warm", "merge")]
    assert warm_view[idx("long_scan_s")] <= warm_merge[idx("long_scan_s")] * 1.10
    assert warm_view[idx("gets_long")] <= warm_merge[idx("gets_long")]

    # View maintenance (an in-memory rebuild at every flush/compaction, never
    # persisted) costs at most a modest slice of update-heavy throughput.
    merge_kops = rows[("ycsb-a", "merge")][idx("Kops/s")]
    view_kops = rows[("ycsb-a", "view")][idx("Kops/s")]
    assert view_kops >= merge_kops * 0.85

    # Determinism: a second run reproduces the table exactly.
    again = e24_sorted_view()
    assert again.rows == table.rows

    payload = table.to_dict()
    payload["experiment"] = "e24_sorted_view"
    payload["unit"] = "simulated seconds / milliseconds per operation"
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
