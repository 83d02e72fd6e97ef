"""Knob census: every config field is set by something, and the count is fixed.

A field of a config dataclass that no code, benchmark, example or test ever
sets is not a setting — it is a constant with plumbing. This test walks the
ASTs of ``src/repro``, ``benchmarks``, ``examples`` and ``tests`` and fails
when such a field appears, or when the number of settable values changes:
a new option has to raise ``TOTAL_FIELDS`` in the same diff, where a reviewer
sees it.

The same walk enforces DESIGN.md's rule for forks without traffic: a field
that only ``tests`` or ``examples`` set — nothing in ``src/repro``, no
benchmark — selects a path no experiment runs, and must be listed in
``TEST_ONLY`` with what it is for. A new test-only knob fails here instead
of waiting for the next audit.
"""

import ast
import functools
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

CONFIG_CLASSES = {
    "Options": "src/repro/lsm/options.py",
    "StoreConfig": "src/repro/mash/store.py",
    "PlacementConfig": "src/repro/mash/placement.py",
    "PCacheConfig": "src/repro/mash/pcache.py",
    "LayoutConfig": "src/repro/mash/layout.py",
    "XWalConfig": "src/repro/mash/xwal.py",
    "ServeConfig": "src/repro/serve/sharded.py",
    "FrontendConfig": "src/repro/serve/frontend.py",
    "HarnessKnobs": "src/repro/bench/harness.py",
    "RocksDBCloudConfig": "src/repro/baselines/rocksdb_cloud.py",
    "CloudOnlyConfig": "src/repro/baselines/cloud_only.py",
    "LocalOnlyConfig": "src/repro/baselines/local_only.py",
}

TOTAL_FIELDS = 85

EXEMPT = {
    "cost_model": "prices are a deployment setting; E7 reads them",
    "local_capacity_bytes": "ROADMAP item 2 gives the full device defined behaviour",
}
"""Fields nothing sets that stay fields, each with the reason."""

TEST_ONLY = {
    "cloud_fault_seed": "fuzz axis: the property suites draw the fault stream's seed",
    "cloud_fault_op_prefixes": "fuzz axis: ROADMAP item 1's cloud-fault-burst rule aims faults at writes",
    "sync_every_n_appends": "fuzz axis: how much of the pcache slab a crash may tear",
    "arrival_seed": "fuzz axis: the open-loop front-end's arrival stream",
    "op_seed": "fuzz axis: the open-loop front-end's op stream",
    "compaction_filter": "a user callback, not a setting; examples/session_ttl.py shows it",
}
"""Fields set from ``tests`` or ``examples`` and from nowhere in ``src/repro``
or ``benchmarks`` — pinned exactly, each with the reason it stays a field."""

TRAFFIC = ("src/repro", "benchmarks")
TESTS = ("examples", "tests")


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


@functools.cache
def _names_set_in(top: str) -> frozenset[str]:
    names: set[str] = set()
    for path in sorted((REPO_ROOT / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                    names.add(node.attr)
    return frozenset(names)


def names_set_under(tops: tuple[str, ...]) -> set[str]:
    """Every keyword-argument name and every non-``self`` attribute store."""
    return set().union(*map(_names_set_in, tops))


def test_every_config_field_is_set_somewhere_and_the_total_is_pinned():
    fields = {
        name: declared_fields(name, rel) for name, rel in CONFIG_CLASSES.items()
    }
    set_names = names_set_under(TRAFFIC + TESTS)
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


def test_fields_only_tests_set_are_the_pinned_six():
    fields = {f for name, rel in CONFIG_CLASSES.items() for f in declared_fields(name, rel)}
    test_only = fields & names_set_under(TESTS) - names_set_under(TRAFFIC)
    assert test_only == set(TEST_ONLY), (
        "a field only tests or examples set selects a path no experiment or "
        "benchmark runs: make it a constant, or give it traffic"
    )
