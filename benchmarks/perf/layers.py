"""Module → layer map and the profile fold that produces the per-layer ledger.

A layer is one of this repository's modules (or two that form one unit,
such as ``block_cache`` + ``table_cache``). The traced run profiles the op
loop with :mod:`cProfile`; function-level rows are far too many to keep as
spans (tens of millions of calls), so each profiled function folds into its
layer by file path as the table is built.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from benchmarks.perf import REPO_ROOT

SRC_ROOT = REPO_ROOT / "src" / "repro"
BENCH_ROOT = Path(__file__).resolve().parent

# Path relative to src/repro → layer. A directory entry (trailing slash)
# covers every module below it that has no entry of its own.
MODULE_LAYERS: dict[str, str] = {
    "util/varint.py": "util.varint",
    "util/encoding.py": "util.encoding",
    "util/crc.py": "util.crc",
    "util/bloom.py": "util.bloom",
    "util/skiplist.py": "util.skiplist",
    "lsm/filters.py": "util.bloom",
    "lsm/memtable.py": "lsm.memtable",
    "lsm/wal.py": "lsm.wal",
    "lsm/write_batch.py": "lsm.wal",
    "lsm/block.py": "lsm.block",
    "lsm/format.py": "lsm.format",
    "lsm/table_builder.py": "lsm.table_builder",
    "lsm/table_reader.py": "lsm.table_reader",
    "lsm/block_cache.py": "lsm.cache",
    "lsm/table_cache.py": "lsm.cache",
    "lsm/iterator.py": "lsm.iterator",
    "lsm/version.py": "lsm.version",
    "lsm/compaction.py": "lsm.compaction",
    "lsm/universal.py": "lsm.compaction",
    "lsm/db.py": "lsm.db",
    "lsm/options.py": "lsm.db",
    "mash/pcache.py": "mash.pcache",
    "mash/layout.py": "mash.layout",
    "mash/placement.py": "mash.placement",
    "mash/xwal.py": "mash.xwal",
    "mash/readahead.py": "mash.readahead",
    "mash/prefetch.py": "mash.readahead",
    "mash/store.py": "mash.store",
    "storage/local.py": "storage.local",
    "storage/cloud.py": "storage.cloud",
    "storage/env.py": "storage.env",
    "sim/": "sim",
    "obs/": "obs",
    "metrics/": "metrics",
    "workloads/": "workloads",
    "facade.py": "facade",
    # Not on the measured path: features the harness defaults leave off,
    # offline tools, and code that only runs at import. The traced run
    # must show no calls here; a call means the map needs a real layer.
    "lsm/blob.py": "other",
    "lsm/sortedview.py": "other",
    "lsm/check.py": "other",
    "mash/bloblog.py": "other",
    "mash/checkpoint.py": "other",
    "storage/cost.py": "other",
    "storage/diskfile.py": "other",
    "errors.py": "other",
    "serve/": "other",
    "tune/": "other",
    "baselines/": "other",
    "bench/": "other",
    "lint/": "other",
}

LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(v for v in MODULE_LAYERS.values() if v != "other")
) + ("python",)
"""Layers that get ``calls_per_op`` / ``self_us_per_op`` metrics. ``python``
is builtins and the standard library. The trace file also carries ``bench``
(this package's own loop) and ``other``."""


def layer_of_module(rel_path: str) -> str | None:
    """Layer of a module given its path relative to ``src/repro``."""
    if rel_path in MODULE_LAYERS:
        return MODULE_LAYERS[rel_path]
    if rel_path.endswith("__init__.py"):
        return "other"  # import-time code only
    directory = rel_path.split("/", 1)[0] + "/"
    return MODULE_LAYERS.get(directory)


def layer_of_code(code: Any) -> str:
    """Layer of one profiled function (a code object, or a string for a
    builtin). Raises on a function under ``src/repro`` with no layer."""
    if isinstance(code, str):
        return "python"
    path = Path(code.co_filename)
    if path.is_relative_to(SRC_ROOT):
        rel = path.relative_to(SRC_ROOT).as_posix()
        layer = layer_of_module(rel)
        if layer is None:
            raise KeyError(f"no layer for module src/repro/{rel}")
        return layer
    if path.is_relative_to(BENCH_ROOT):
        return "bench"
    return "python"


def _label(code: Any) -> str:
    if isinstance(code, str):
        return code
    name = getattr(code, "co_qualname", code.co_name)
    path = Path(code.co_filename)
    for root in (SRC_ROOT.parent, REPO_ROOT):
        if path.is_relative_to(root):
            return f"{path.relative_to(root).as_posix()}:{name}"
    return f"{path.name}:{name}"


def fold_profile(stats: list[Any]) -> dict[str, Any]:
    """Fold ``cProfile.Profile.getstats()`` rows into layers.

    Returns ``functions`` (one row per function: label, layer, calls, self
    and inclusive seconds, caller layers) and ``layers`` (per layer: calls,
    self seconds, and *inclusive* seconds — time with the layer outermost
    on the stack, summed over calls that enter it from another layer).
    """
    layer_cache: dict[Any, str] = {}

    def layer(code: Any) -> str:
        found = layer_cache.get(code)
        if found is None:
            found = layer_cache[code] = layer_of_code(code)
        return found

    callers: dict[Any, set[str]] = {}
    layers: dict[str, dict[str, float]] = {}

    def bucket(name: str) -> dict[str, float]:
        return layers.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})

    for row in stats:
        own = layer(row.code)
        entry = bucket(own)
        entry["calls"] += row.callcount
        entry["self_s"] += row.inlinetime
        for sub in row.calls or ():
            callers.setdefault(sub.code, set()).add(own)
            if layer(sub.code) != own:
                bucket(layer(sub.code))["incl_s"] += sub.totaltime

    functions = [
        {
            "function": _label(row.code),
            "layer": layer(row.code),
            "calls": row.callcount,
            "self_s": row.inlinetime,
            "incl_s": row.totaltime,
            "caller_layers": sorted(callers.get(row.code, ())),
        }
        for row in stats
    ]
    functions.sort(key=lambda f: (-f["self_s"], f["function"]))
    return {"functions": functions, "layers": layers}
