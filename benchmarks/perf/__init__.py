"""Two-clock performance benchmark for the RocksMash store.

``python3 -m benchmarks.perf`` from the repository root; see README.md here.
Wall clocks are forbidden under ``src/`` (reprolint RL001), so everything
that reads one lives in this package and measures the store from outside.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_contract() -> dict[str, Any]:
    """BENCHMARK.json: workload names, metric names, units and bounds."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
