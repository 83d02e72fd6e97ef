"""E25 — Monkey filter allocation vs uniform at equal filter memory.

Expected shape: on a point-miss probe of a three-level cloud-resident tree
(absent keys inside every table's key range, so each false positive is a
billable cloud GET), a Monkey allocation at the uniform 10 bits/key budget
gives fewer bloom false positives and no more cloud GETs than uniform
10 bits/key, while the *live* filter bytes (summed from table footers) stay
within 1 % of the uniform run's. The experiment runs on the simulated
clock, so a second run is bit-equal to the first.

Writes ``BENCH_e25.json`` so CI archives a machine-readable artifact
alongside the table.
"""

import json
import pathlib

from benchmarks.conftest import run_experiment
from repro.bench.experiments import e25_monkey_filters

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e25.json"


def test_e25_monkey_filters(benchmark):
    table = run_experiment(benchmark, e25_monkey_filters)
    idx = table.headers.index
    rows = {(row[idx("config")], row[idx("phase")]): row for row in table.rows}

    uniform = rows[("uniform-10", "pointmiss")]
    monkey = rows[("monkey-10", "pointmiss")]
    assert monkey[idx("bloom_fp")] < uniform[idx("bloom_fp")]
    assert monkey[idx("cloud_gets")] <= uniform[idx("cloud_gets")]
    memory = table.extra["filter_memory"]
    assert abs(memory["monkey-10"] - memory["uniform-10"]) <= memory["uniform-10"] * 0.01, memory

    again = e25_monkey_filters()
    assert again.rows == table.rows
    assert again.extra == table.extra

    payload = table.to_dict()
    payload["experiment"] = "e25_monkey_filters"
    payload["unit"] = "simulated seconds per phase"
    ARTIFACT.write_text(json.dumps(payload, indent=2) + "\n")
