"""Knob census: every config field is set by something, and the count is fixed.

A field of a config dataclass that no code, benchmark, example or test ever
sets is not a setting — it is a constant with plumbing. This test walks the
ASTs of ``src/repro``, ``benchmarks``, ``examples`` and ``tests`` and fails
when such a field appears, or when the number of settable values changes:
a new option has to raise ``TOTAL_FIELDS`` in the same diff, where a reviewer
sees it.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

CONFIG_CLASSES = {
    "Options": "src/repro/lsm/options.py",
    "StoreConfig": "src/repro/mash/store.py",
    "PlacementConfig": "src/repro/mash/placement.py",
    "PCacheConfig": "src/repro/mash/pcache.py",
    "LayoutConfig": "src/repro/mash/layout.py",
    "XWalConfig": "src/repro/mash/xwal.py",
    "TuningConfig": "src/repro/tune/controller.py",
    "ServeConfig": "src/repro/serve/sharded.py",
    "FrontendConfig": "src/repro/serve/frontend.py",
    "HarnessKnobs": "src/repro/bench/harness.py",
    "RocksDBCloudConfig": "src/repro/baselines/rocksdb_cloud.py",
    "CloudOnlyConfig": "src/repro/baselines/cloud_only.py",
    "LocalOnlyConfig": "src/repro/baselines/local_only.py",
}

TOTAL_FIELDS = 102

EXEMPT = {
    "cost_model": "prices are a deployment setting; E7 reads them",
    "local_capacity_bytes": "ROADMAP item 2 gives the full device defined behaviour",
}
"""Fields nothing sets that stay fields, each with the reason."""

SCANNED = ("src/repro", "benchmarks", "examples", "tests")


def declared_fields(class_name: str, rel_path: str) -> list[str]:
    tree = ast.parse((REPO_ROOT / rel_path).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    raise AssertionError(f"{class_name} not found in {rel_path}")


def names_set_anywhere() -> set[str]:
    """Every keyword-argument name and every non-``self`` attribute store."""
    names: set[str] = set()
    for top in SCANNED:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.keyword) and node.arg is not None:
                    names.add(node.arg)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                        names.add(node.attr)
    return names


def test_every_config_field_is_set_somewhere_and_the_total_is_pinned():
    fields = {
        name: declared_fields(name, rel) for name, rel in CONFIG_CLASSES.items()
    }
    set_names = names_set_anywhere()
    never_set = sorted(
        f"{cls}.{f}"
        for cls, names in fields.items()
        for f in names
        if f not in set_names and f not in EXEMPT
    )
    assert never_set == [], (
        "fields nothing sets (make each a module constant beside the code "
        f"that reads it): {never_set}"
    )
    assert not set(EXEMPT) & set_names, "an exempt field is set now: drop its exemption"
    per_class = {cls: len(names) for cls, names in fields.items()}
    assert sum(per_class.values()) == TOTAL_FIELDS, per_class
