"""Compare two sets of result files: ``python3 -m benchmarks.perf.compare A B``.

``A`` (base) and ``B`` (change) are result files written by
``python3 -m benchmarks.perf --out``; give several per side as a
comma-separated list and medians and quartiles are compared. One row per
workload × end-to-end metric with a verdict from BENCHMARK.json's bounds,
then the per-layer metrics that moved, largest relative change first.

A verdict is not a claim: a gain is claimed from at least ten alternating
pairs (see README.md), which this tool only summarises.
"""

from __future__ import annotations

import argparse
import json
import math
from collections.abc import Sequence
from typing import Any

from benchmarks.perf import load_contract
from benchmarks.perf.stats import quartiles, spread

LAYER_ROWS = 12
LAYER_MOVED = 0.01


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """improved / unchanged / regressed by the metric's bound; *unresolved*
    when either side's own run-to-run spread is wider than that bound."""
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    base_median, change_median = quartiles(base)[1], quartiles(change)[1]
    if base_median == 0:
        return "unchanged" if change_median == 0 else "unresolved"
    worse_by = (change_median - base_median) / abs(base_median)
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def load(paths: str) -> dict[str, dict[str, dict[str, list[float]]]]:
    """workload → section (end_to_end / per_layer) → metric → one value per file."""
    merged: dict[str, dict[str, dict[str, list[float]]]] = {}
    for path in paths.split(","):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        for workload, entry in result["workloads"].items():
            for section in ("end_to_end", "per_layer"):
                for name, metric in entry.get(section, {}).items():
                    merged.setdefault(workload, {}).setdefault(section, {}).setdefault(name, []).append(
                        metric["value"]
                    )
    return merged


def _show(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    if len(values) == 1:
        return f"{median:.6g}"
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base: dict[str, Any], change: dict[str, Any], contract: dict[str, Any]) -> list[str]:
    lines = []
    for workload in (w["name"] for w in contract["workloads"]):
        if workload not in base or workload not in change:
            continue
        lines.append(f"{workload}")
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = base[workload]["end_to_end"].get(name)
            b = change[workload]["end_to_end"].get(name)
            if not a or not b:
                continue
            a_median, b_median = quartiles(a)[1], quartiles(b)[1]
            ratio = f"{b_median / a_median:.4f}x base" if a_median else "n/a"
            lines.append(
                f"  {name:18s} {metric['unit']:10s} base {_show(a):32s} change {_show(b):32s}"
                f" {ratio:14s} ({metric['better']} is better, bound {metric['bound']:.0%})"
                f"  {verdict(a, b, metric['better'], metric['bound'])}"
            )
        moved = []
        layer_a = base[workload].get("per_layer", {})
        layer_b = change[workload].get("per_layer", {})
        for name in layer_a.keys() & layer_b.keys():
            a_median, b_median = quartiles(layer_a[name])[1], quartiles(layer_b[name])[1]
            if a_median > 0 and b_median > 0 and abs(b_median / a_median - 1) > LAYER_MOVED:
                moved.append((abs(math.log(b_median / a_median)), name, a_median, b_median))
        for _, name, a_median, b_median in sorted(moved, reverse=True)[:LAYER_ROWS]:
            lines.append(f"    layer {name:36s} {a_median:.6g} -> {b_median:.6g}  ({b_median / a_median:.4f}x base)")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.perf.compare", description=__doc__)
    parser.add_argument("base", help="result file(s) of the parent commit, comma-separated")
    parser.add_argument("change", help="result file(s) of the change, comma-separated")
    args = parser.parse_args()
    print("\n".join(compare(load(args.base), load(args.change), load_contract())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
