"""Knob census: every config field is given a value by something, and the count is fixed.

A field of a config dataclass that nothing gives a value of its own is not a
setting — it is a constant with plumbing. This test walks the ASTs of
``src/repro``, ``benchmarks``, ``examples`` and ``tests`` and counts a field
``C.f`` as set only where

* ``C(...)`` is called with ``f=`` (or ``f`` in its positional slot), and
  ``cls(...)`` inside ``C``'s own body counts as ``C(...)``;
* ``dataclasses.replace(...)`` is called with ``f=`` — this counts for every
  class that declares ``f``;
* ``x.f`` is assigned on something other than ``self`` — also for every class
  that declares ``f``;

and only with a value that is neither a literal equal to the declared default
(``field(default_factory=g)`` declares ``g()``) nor a forward ``y.f`` from a
same-named field that is itself unset. A mirror such as
``upload_parallelism=knobs.upload_parallelism`` is therefore traffic only if
something gives ``knobs.upload_parallelism`` a value.

The walk does not know which class a ``replace`` call's first argument is,
so a field whose only setter is a ``replace`` on a sibling class that
declares the same name passes unseen. Check such a field by hand: the three
baselines' ``db_prefix`` counted as set only through ``replace(config,
db_prefix=...)`` on a ``StoreConfig`` in ``serve/sharded.py``, and became the
module constant ``repro.facade.DB_PREFIX``.

The test fails when a field nothing sets appears, or when the number of
fields changes: a new option has to raise ``TOTAL_FIELDS`` in the same diff,
where a reviewer sees it.

The same walk enforces DESIGN.md's rule for forks without traffic: a field
that only ``tests`` or ``examples`` set — nothing in ``src/repro``, no
benchmark — selects a path no experiment runs, and must be listed in
``TEST_ONLY`` with what it is for. A new test-only knob fails here instead
of waiting for the next audit.
"""

import ast
import functools
import operator
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

CONFIG_CLASSES = {
    "Options": "src/repro/lsm/options.py",
    "StoreConfig": "src/repro/mash/store.py",
    "PlacementConfig": "src/repro/mash/placement.py",
    "PCacheConfig": "src/repro/mash/pcache.py",
    "LayoutConfig": "src/repro/mash/layout.py",
    "XWalConfig": "src/repro/lsm/wal.py",
    "ServeConfig": "src/repro/serve/sharded.py",
    "FrontendConfig": "src/repro/serve/frontend.py",
    "HarnessKnobs": "src/repro/bench/harness.py",
    "RocksDBCloudConfig": "src/repro/baselines/rocksdb_cloud.py",
    "CloudOnlyConfig": "src/repro/baselines/cloud_only.py",
    "LocalOnlyConfig": "src/repro/baselines/local_only.py",
}

TOTAL_FIELDS = 58

EXEMPT = {
    "cost_model": "prices are a deployment setting; E7 reads them",
}
"""Fields nothing sets that stay fields, each with the reason."""

TEST_ONLY = {
    "PCacheConfig.sync_every_n_appends": "fuzz axis: how much of the pcache's logs a crash may tear",
    "StoreConfig.local_capacity_bytes": (
        "ROADMAP item 2: a full device; its regression test sets it, E26 will"
    ),
    "FrontendConfig.arrival_seed": "fuzz axis: the open-loop front-end's arrival stream",
    "FrontendConfig.op_seed": "fuzz axis: the open-loop front-end's op stream",
    "Options.compaction_filter": "a user callback, not a setting; examples/session_ttl.py shows it",
    "Options.max_manifest_file_size": (
        "crash-window axis: the only way a small store reaches the two "
        "manifest.rewrite_* crash sites"
    ),
}
"""Fields set from ``tests`` or ``examples`` and from nowhere in ``src/repro``
or ``benchmarks`` — pinned exactly, each with the reason it stays a field."""

TRAFFIC = ("src/repro", "benchmarks")
TESTS = ("examples", "tests")

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
    ast.LShift: operator.lshift,
}


def _fold(node: ast.expr) -> object:
    """The constant a literal expression folds to; ``ValueError`` otherwise."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_fold(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_fold(node.left), _fold(node.right))
    if isinstance(node, ast.Tuple):
        return tuple(_fold(element) for element in node.elts)
    raise ValueError(ast.dump(node))


def _value_key(node: ast.expr | None) -> tuple | None:
    """A comparable stand-in for a value: its folded literal, ``("call", g)``
    for a call ``g()`` with no arguments, ``None`` for anything else."""
    if node is None:
        return None
    try:
        return ("literal", _fold(node))
    except ValueError:
        pass
    if isinstance(node, ast.Call) and not node.args and not node.keywords:
        if isinstance(node.func, ast.Name):
            return ("call", node.func.id)
    return None


def _default_key(stmt: ast.AnnAssign) -> tuple | None:
    value = stmt.value
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        for keyword in value.keywords:
            if keyword.arg == "default":
                return _value_key(keyword.value)
            if keyword.arg == "default_factory" and isinstance(keyword.value, ast.Name):
                return ("call", keyword.value.id)
        return None
    return _value_key(value)


@functools.cache
def declared() -> dict[str, dict[str, tuple | None]]:
    """``{class: {field: default key}}`` in declaration order."""
    out: dict[str, dict[str, tuple | None]] = {}
    for class_name, rel_path in CONFIG_CLASSES.items():
        tree = ast.parse((REPO_ROOT / rel_path).read_text(encoding="utf-8"))
        node = next(
            (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == class_name),
            None,
        )
        assert node is not None, f"{class_name} not found in {rel_path}"
        out[class_name] = {
            stmt.target.id: _default_key(stmt)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        }
    return out


def _declaring(field_name: str) -> list[str]:
    return [cls for cls, fields in declared().items() if field_name in fields]


def _constructed(call: ast.Call, owner: str | None) -> str | None:
    """The config class a call constructs, if any; ``cls(...)`` inside a
    class body constructs that class."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "cls":
        name = owner
    return name if name in CONFIG_CLASSES else None


def _is_replace(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "replace"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "replace"
        and isinstance(func.value, ast.Name)
        and func.value.id == "dataclasses"
    )


def _assignments(tree: ast.Module) -> list[tuple[list[str], str, ast.expr | None]]:
    """Every ``(classes, field, value)`` the tree gives a config field;
    ``value`` is ``None`` where the assigned expression is not one node."""
    owners = {
        id(call): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }
    found: list[tuple[list[str], str, ast.expr | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            keywords = [kw for kw in node.keywords if kw.arg is not None]
            cls = _constructed(node, owners.get(id(node)))
            if cls is not None:
                positional = zip(declared()[cls], node.args)
                found += [
                    ([cls], f, arg) for f, arg in positional if not isinstance(arg, ast.Starred)
                ]
                found += [([cls], kw.arg, kw.value) for kw in keywords]
            elif _is_replace(node):
                found += [(_declaring(kw.arg), kw.arg, kw.value) for kw in keywords]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            plain = not isinstance(node, ast.AugAssign)
            for target in targets:
                for attr in ast.walk(target):
                    if not (isinstance(attr, ast.Attribute) and isinstance(attr.ctx, ast.Store)):
                        continue
                    if isinstance(attr.value, ast.Name) and attr.value.id == "self":
                        continue
                    value = node.value if plain and attr is target else None
                    found.append((_declaring(attr.attr), attr.attr, value))
    return found


def fields_set(trees: list[ast.Module]) -> set[str]:
    """``C.f`` for every field the trees give a value other than its default."""
    real: set[str] = set()
    forwards: set[str] = set()
    for tree in trees:
        for classes, field_name, value in _assignments(tree):
            key = _value_key(value)
            is_forward = isinstance(value, ast.Attribute) and value.attr == field_name
            for cls in classes:
                if field_name not in declared()[cls]:
                    continue
                if key is not None and key == declared()[cls][field_name]:
                    continue
                (forwards if is_forward else real).add(f"{cls}.{field_name}")
    settled = set(real)
    pending = forwards - settled
    while True:
        resolved = {
            qual
            for qual in pending
            if any(
                other != qual and other.split(".")[1] == qual.split(".")[1]
                for other in settled
            )
        }
        if not resolved:
            return settled
        settled |= resolved
        pending -= resolved


@functools.cache
def _trees_under(top: str) -> tuple[ast.Module, ...]:
    return tuple(
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
    )


def fields_set_under(tops: tuple[str, ...]) -> set[str]:
    return fields_set([tree for top in tops for tree in _trees_under(top)])


def all_fields() -> list[str]:
    return [f"{cls}.{f}" for cls, fields in declared().items() for f in fields]


def test_every_config_field_is_set_somewhere_and_the_total_is_pinned():
    set_fields = fields_set_under(TRAFFIC + TESTS)
    never_set = sorted(
        qual
        for qual in all_fields()
        if qual not in set_fields and qual.split(".")[1] not in EXEMPT
    )
    assert never_set == [], (
        "fields nothing gives a value of their own (make each a module "
        f"constant beside the code that reads it): {never_set}"
    )
    assert not {q for q in set_fields if q.split(".")[1] in EXEMPT}, (
        "an exempt field is set now: drop its exemption"
    )
    per_class = {cls: len(fields) for cls, fields in declared().items()}
    assert sum(per_class.values()) == TOTAL_FIELDS, per_class


def test_fields_only_tests_set_are_pinned():
    test_only = fields_set_under(TRAFFIC + TESTS) - fields_set_under(TRAFFIC)
    assert sorted(test_only) == sorted(TEST_ONLY), (
        "a field only tests or examples set selects a path no experiment or "
        "benchmark runs: make it a constant, or give it traffic"
    )


def test_the_census_counts_values_not_names():
    """A literal equal to the default, a ``default_factory`` call and a
    forward from an unset field are not traffic; a forward from a set one
    is."""
    source = (
        "HarnessKnobs(compression=\"none\", cloud_rtt=rtt)\n"
        "StoreConfig(cost_model=CostModel())\n"
        "StoreConfig(scan_readahead_bytes=knobs.scan_readahead_bytes)\n"
        "Options(write_buffer_size=knobs.write_buffer_size)\n"
        "HarnessKnobs(write_buffer_size=4 << 10)\n"
    )
    got = fields_set([ast.parse(source)])
    assert got == {
        "HarnessKnobs.cloud_rtt",
        "HarnessKnobs.write_buffer_size",
        "Options.write_buffer_size",
    }
