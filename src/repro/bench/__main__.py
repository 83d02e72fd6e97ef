"""Command-line experiment runner.

Usage::

    python -m repro.bench --list        # show available experiments
    python -m repro.bench e3            # run E3 (YCSB) and print its table
    python -m repro.bench e6a e6b       # run several
    python -m repro.bench all           # run everything (a few minutes)
"""

from __future__ import annotations

import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help", "list", "--list"):
        print(__doc__)
        print("experiments:")
        for name, fn in ALL_EXPERIMENTS.items():
            headline = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:<5} {headline}")
        return 0

    names = list(ALL_EXPERIMENTS) if argv == ["all"] else argv
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    for name in names:
        # Wall time never feeds a result — every figure in the experiment
        # tables comes from the simulated clock; this is operator feedback
        # (repro.lint's ALLOWED lists both reads).
        start = time.perf_counter()
        ALL_EXPERIMENTS[name]().show()
        print(f"[{name}] wall time {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
