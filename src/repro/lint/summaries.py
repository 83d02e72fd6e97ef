"""Per-file summaries: the facts the cross-file rules join on.

Most rules judge one file at a time. Three need the whole tree, and each
joins on one small fact per file, extracted here while the file's AST is
in hand so the engine never holds more than one tree:

* **crash-point facts** (RL003) — ``reach()`` sites and the
  ``CRASH_SITES`` registry literal;
* **taxonomy facts** (RL004) — class tables and ``raise`` sites;
* **suppression comments** (RL010) — the rule ids each
  ``# reprolint: ignore[...]`` names, un-propagated.

The file's propagated suppression map rides along so findings a
cross-file rule anchors here still honor inline suppressions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.lint.finding import Site
from repro.lint.rules._ast_util import last_name, str_const
from repro.lint.suppress import iter_suppression_comments

if TYPE_CHECKING:
    from repro.lint.engine import ModuleInfo

_REGISTRY_NAME = "CRASH_SITES"


@dataclass
class FileFacts:
    """Everything the cross-file rules need to know about one source file."""

    rel_path: str
    #: every ``reach("<site>")`` literal: site name → first location.
    reaches: dict[str, Site] = field(default_factory=dict)
    #: the ``CRASH_SITES`` literal keys (site → location) when defined here.
    registry: dict[str, Site] | None = None
    #: class name → base-class names.
    classes: dict[str, list[str]] = field(default_factory=dict)
    #: ``raise X`` sites: (exception name, location).
    raises: list[tuple[str, Site]] = field(default_factory=list)
    #: suppression map (1-based line → rule ids), as the module parsed it.
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    #: ``# reprolint: ignore[...]`` comments that name rules: (location,
    #: sorted ids) — for the RL010 stale-suppression check.
    suppression_comments: list[tuple[Site, list[str]]] = field(default_factory=list)


def _registry_keys(module: "ModuleInfo", node: ast.AST) -> dict[str, Site] | None:
    """The literal keys of a ``CRASH_SITES = {...}`` assignment, else None."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return None
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    if not isinstance(node.value, ast.Dict) or not any(
        isinstance(t, ast.Name) and t.id == _REGISTRY_NAME for t in targets
    ):
        return None
    keys: dict[str, Site] = {}
    for key in node.value.keys:
        name = str_const(key) if key is not None else None
        if name is not None:
            keys[name] = module.site(key)
    return keys


def extract_file_facts(module: "ModuleInfo") -> FileFacts:
    """Extract every cross-file fact from one parsed module."""
    facts = FileFacts(rel_path=module.rel_path, suppressions=module.suppressions)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = str_const(node.args[0]) if node.args else None
            if name is not None and node.func.attr == "reach":
                facts.reaches.setdefault(name, module.site(node))
        elif isinstance(node, ast.ClassDef):
            facts.classes.setdefault(
                node.name,
                [b for b in (last_name(base) for base in node.bases) if b],
            )
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = last_name(exc.func if isinstance(exc, ast.Call) else exc)
            if name is not None:
                facts.raises.append((name, module.site(node)))
        elif facts.registry is None:
            facts.registry = _registry_keys(module, node)

    for lineno, named in iter_suppression_comments(module.lines):
        if named:  # a bare ``ignore`` names no rules — nothing to go stale
            site = Site(
                path=module.rel_path,
                line=lineno,
                col=0,
                end_line=lineno,
                snippet=module.line(lineno).strip(),
            )
            facts.suppression_comments.append((site, sorted(named)))
    return facts
