"""Command line: ``python3 -m benchmarks.perf`` from the repository root.

* ``--workload NAME`` runs one workload in this process and prints, as the
  last line of standard output, one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
  ``--trace 0`` (the default), the per-layer metrics with ``--trace 1``.
* Without ``--workload`` every workload runs, each in a fresh subprocess
  (so peak RSS and warm caches do not leak between them), untraced and
  traced, and the combined result is written to ``--out``.
* ``--selfcheck`` runs every workload twice at a short length and fails
  unless every simulated figure, count and call count is bit-equal.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from typing import Any

from benchmarks.perf import REPO_ROOT, load_contract

OUT_DIR = Path(__file__).resolve().parent / "out"
SELFCHECK_SECONDS = 1.0

WALL_CLOCK_NAME = re.compile(r"wall|self_us|incl|overhead|setup_s|peak_rss|spin")
"""Metrics read off the wall clock or the process; everything else comes
from the simulated clock or a counter and must repeat exactly for a seed."""


def with_units(values: dict[str, float], declared: list[dict[str, str]]) -> dict[str, dict[str, Any]]:
    """Attach BENCHMARK.json's units; the two name sets must be the same."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        odd = sorted(set(values) ^ set(units))
        raise SystemExit(f"metric names differ from BENCHMARK.json: {odd}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_one(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    """One workload in this process; prints the contract's result line."""
    from benchmarks.perf.runner import REPLICAS, run_measured, run_traced
    from benchmarks.perf.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    traced = args.trace == 1
    measured = run_measured(workload, args.seed, args.seconds, replicas=1 if traced else REPLICAS)
    failed = measured["failed"]
    guards = dict(measured["guards"])
    if traced:
        trace = run_traced(workload, args.seed, args.seconds, measured["wall_per_op"])
        failed += trace["failed"]
        guards.update(trace["guards"])
        values = {**measured["counts"], **trace["metrics"]}
        metrics = with_units(values, contract["per_layer"])
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace_{workload.name}.json"
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": workload.name,
                    "seed": args.seed,
                    "traced_ops": trace["ops"],
                    "traced_loop_s": trace["elapsed_s"],
                    **trace["table"],
                },
                handle,
                indent=1,
            )
        print(f"trace table: {trace_path.relative_to(REPO_ROOT)}")
    else:
        metrics = with_units(measured["end_to_end"], contract["end_to_end"])

    print(f"workload {workload.name}  seed {args.seed}  ops {measured['ops']}  samples {measured['samples']}")
    for name, guard in guards.items():
        print(f"  guard {name}: {guard['value']:.6g}  {'ok' if guard['ok'] else 'VIOLATED'}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": measured["attempted"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def child(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """Run one workload in a fresh interpreter and return its result line."""
    command = [
        sys.executable, "-m", "benchmarks.perf",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: no result (exit code {done.returncode})")
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    return result


def host_record() -> dict[str, Any]:
    """Context for reading wall numbers (with each workload's ``host.spin_us``)."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()}


def run_all(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    result: dict[str, Any] = {
        "host": host_record(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    exit_code = 0
    for spec in contract["workloads"]:
        entry: dict[str, Any] = {"attempted": 0, "failed": 0}
        for trace in (0, 1) if args.trace is None else (args.trace,):
            run = child(spec["name"], args.seed, args.seconds, trace)
            entry["per_layer" if trace else "end_to_end"] = run["metrics"]
            entry["attempted"] += run["attempted"]
            entry["failed"] += run["failed"]
            exit_code |= run["exit_code"]
        result["workloads"][spec["name"]] = entry
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"result: {out}  host: {result['host']}")
    for name, entry in result["workloads"].items():
        print(f"  {name:12s} attempted {entry['attempted']:>7d}  failed {entry['failed']}")
    return exit_code


def selfcheck(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    """Two runs of every workload must agree exactly off the wall clock."""
    differing = []
    for spec in contract["workloads"]:
        for trace in (0, 1):
            first, second = (
                child(spec["name"], args.seed, SELFCHECK_SECONDS, trace)["metrics"]
                for _ in range(2)
            )
            for name in first:
                if WALL_CLOCK_NAME.search(name):
                    continue
                if first[name]["value"] != second[name]["value"]:
                    differing.append((spec["name"], name, first[name]["value"], second[name]["value"]))
    for row in differing:
        print("selfcheck: %s %s differs: %r != %r" % row)
    print(f"selfcheck: {'FAILED' if differing else 'ok, every simulated figure and count repeats exactly'}")
    return 1 if differing else 0


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.perf", description=__doc__)
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", default=str(OUT_DIR / "result.json"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.selfcheck:
        return selfcheck(args, contract)
    if args.workload is None:
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    # Hash randomisation reorders set iteration, which would change call
    # counts between runs; pin it, in a fresh interpreter if need be.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
