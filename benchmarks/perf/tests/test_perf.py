"""Tests of the benchmark itself. Run by path from the repository root:

    python3 -m pytest benchmarks/perf/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess

import pytest

from benchmarks.perf import REPO_ROOT, load_contract
from benchmarks.perf.compare import compare, verdict
from benchmarks.perf.layers import LAYERS, SRC_ROOT, layer_of_module
from benchmarks.perf.stats import percentile, quartiles, spread, supported_percentile

CONTRACT = load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_file_is_within_the_drivers_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_every_layer_has_its_two_ledger_metrics():
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.calls_per_op", f"{layer}.self_us_per_op"} <= declared


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_smoke_run_emits_every_declared_metric_once(workload):
    """A short run through the real command line: exit code 0 means every
    answer matched the model, every guard held (the guards are written to
    hold at any run length) and no profiled call fell outside the layer map."""
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [*CONTRACT["command"], "--workload", workload, "--seconds", "1", "--trace", str(trace)],
            cwd=REPO_ROOT, capture_output=True, text=True, check=False,
        )  # fmt: skip
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = [line.split()[0] for line in lines[:-1] if line.startswith("  ") and "guard" not in line]
        assert sorted(printed) == sorted(declared)
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layer_map_covers_every_module_on_the_measured_path():
    unmapped = []
    for package in ("util", "lsm", "mash", "storage", "sim", "obs", "metrics", "workloads"):
        for path in sorted((SRC_ROOT / package).rglob("*.py")):
            rel = path.relative_to(SRC_ROOT).as_posix()
            if layer_of_module(rel) is None:
                unmapped.append(rel)
    assert not unmapped
    assert layer_of_module("facade.py") == "facade"
    assert layer_of_module("lsm/brand_new_module.py") is None
    for package in ("serve", "tune", "baselines", "bench", "lint"):
        assert layer_of_module(f"{package}/anything.py") == "other"


def test_percentiles():
    samples = sorted(float(i) for i in range(1, 1001))
    assert percentile(samples, 50) == 500 and percentile(samples, 99) == 990
    assert percentile(samples, 99.9) == 999 and percentile([7.0], 99) == 7.0
    # the highest percentile with at least ten samples beyond it
    assert supported_percentile(19) == 50.0
    assert supported_percentile(20) == 50.0
    assert supported_percentile(100) == 90.0
    assert supported_percentile(999) == 90.0
    assert supported_percentile(1_000) == 99.0
    assert supported_percentile(10_000) == 99.9
    assert supported_percentile(100_000) == 99.99


def test_quartiles_and_spread():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0) and spread([3.0]) == 0.0
    assert spread([5.0] * 10) == 0.0
    assert spread([90, 95, 100, 105, 110]) == pytest.approx(0.15)  # quartiles 92.5 and 107.5


def test_compare_verdicts():
    assert verdict([100.0], [100.5], "lower", 0.01) == "unchanged"
    assert verdict([100.0], [102.0], "lower", 0.01) == "regressed"
    assert verdict([100.0], [98.0], "lower", 0.01) == "improved"
    assert verdict([100.0], [98.0], "higher", 0.01) == "regressed"
    assert verdict([100.0], [120.0], "higher", 0.10) == "improved"
    # zero-width spread on both sides: decided by the bound alone
    assert verdict([50.0] * 5, [50.0] * 5, "lower", 0.01) == "unchanged"
    assert verdict([50.0] * 5, [51.0] * 5, "lower", 0.01) == "regressed"
    # either side noisier than the bound: no verdict
    assert verdict([90, 95, 100, 105, 110], [80.0] * 5, "lower", 0.10) == "unresolved"
    assert verdict([100.0] * 5, [90, 95, 100, 105, 110], "lower", 0.10) == "unresolved"
    assert verdict([0.0], [0.0], "lower", 0.01) == "unchanged"
    assert verdict([0.0], [1.0], "lower", 0.01) == "unresolved"


def test_compare_report_rows():
    metric = CONTRACT["end_to_end"][1]
    workload = CONTRACT["workloads"][0]["name"]

    def side(e2e, layer):
        return {workload: {"end_to_end": {metric["name"]: e2e}, "per_layer": {"lsm.block.calls_per_op": layer}}}

    lines = compare(side([100.0, 101.0, 99.0], [280.0]), side([150.0, 151.0, 149.0], [140.0]), CONTRACT)
    assert lines[0] == workload
    assert metric["name"] in lines[1] and "1.5000x base" in lines[1] and lines[1].endswith("improved")
    assert "lsm.block.calls_per_op" in lines[2] and "0.5000x base" in lines[2]
    assert len(lines) == 3
