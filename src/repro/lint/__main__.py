"""``python -m repro.lint [PATH ...]``: lint the paths (default ``src``).

Exit codes are stable API for CI: 0 when clean, 1 on any finding, 2 when a
path does not exist.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro.lint import lint_paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.lint", description=__doc__)
    parser.add_argument("paths", nargs="*", default=[Path("src")], type=Path)
    paths: list[Path] = parser.parse_args(argv).paths
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    findings = lint_paths(paths)
    for f in findings:
        print(f"{f.location()}: {f.rule} {f.message}")
    if not findings:
        print("reprolint: clean")
        return 0
    counts = Counter(f.rule for f in findings)
    print(f"\n{len(findings)} finding(s) ("
          + ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items())) + ")")
    return 1


if __name__ == "__main__":
    sys.exit(main())
