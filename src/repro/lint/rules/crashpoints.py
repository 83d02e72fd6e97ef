"""RL003 — crash-point hygiene.

:class:`~repro.sim.failure.CrashPointFired` is deliberately not a
``ReproError``: the whole reliability story (PR 2) rests on it propagating
from an armed site to the harness unconditionally. Three ways code can
break that contract, all checked here:

**Swallowing handlers** (per module). An ``except`` clause that catches
``Exception``/``BaseException``/everything — or names ``CrashPointFired``
itself — and does not re-raise can eat a fired crash point, making the
injected crash silently *not happen* and the crash tests vacuous. A
broad handler is accepted only when a crash point provably cannot escape
it: either it re-raises (a bare ``raise`` anywhere in its body) or an
earlier handler on the same ``try`` catches ``CrashPointFired`` and
re-raises it.

**Registry drift** (cross file). Every ``reach("<site>")`` literal must
name a site in the ``CRASH_SITES`` registry, and every registered site must
be reached by some call site — otherwise arming crashes on an unknown name
at runtime, or the store machine's site test quietly loses a site it can
fire.

**Unbracketed commits** (per module, lexical). A function under ``lsm/`` or
``mash/`` that commits a MANIFEST edit (``log_and_apply``) must contain a
``crash_points.reach(...)`` site in its own body: a new commit path with no
site is a window no crash test can explore, and no test run can notice a
site that was never written. Where in the function the site sits is not
judged — the stateful store oracle (``tests/property/test_store_machine.py``)
fires every registered site and checks what recovery finds.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.lint.config import COMMIT_TOKENS, CRASH_WINDOW_SCOPES, in_scopes
from repro.lint.finding import Finding
from repro.lint.registry import Rule, register
from repro.lint.rules._ast_util import last_name

if TYPE_CHECKING:
    from repro.lint.engine import ModuleInfo
    from repro.lint.finding import Site
    from repro.lint.summaries import FileFacts

BROAD_NAMES = frozenset({"Exception", "BaseException"})
CRASH_EXC = "CrashPointFired"
REGISTRY_NAME = "CRASH_SITES"


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    """Exception class names a handler catches (empty for bare except)."""
    node = handler.type
    if node is None:
        return set()
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    names = set()
    for expr in exprs:
        name = last_name(expr)
        if name is not None:
            names.add(name)
    return names


def _own_nodes(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Every node of ``body`` that runs in its scope. Nested functions do
    not count — their code runs later, if ever — so the walk stops at
    scope boundaries."""
    pending: list[ast.AST] = list(body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        pending.extend(ast.iter_child_nodes(node))


def _reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body contains a bare ``raise`` of its own."""
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in _own_nodes(handler.body)
    )


def _catches_all(handler: ast.ExceptHandler) -> bool:
    return handler.type is None or bool(_handler_names(handler) & BROAD_NAMES)


@register
class CrashPointHygieneRule(Rule):
    id = "RL003"
    name = "crash-point-hygiene"
    description = (
        "no except handler may swallow CrashPointFired; reach() sites and "
        "the CRASH_SITES registry must agree; a function that commits a "
        "MANIFEST edit names a crash site"
    )

    def check_module(self, module: "ModuleInfo") -> Iterable[Finding]:
        findings = list(self._scan_handlers(module))
        if in_scopes(module.pkg_path, CRASH_WINDOW_SCOPES):
            findings.extend(self._scan_commits(module))
        return findings

    # -- per-module: swallowing handlers --------------------------------------

    def _scan_handlers(self, module: "ModuleInfo") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            crash_safe = False  # an earlier handler re-raised CrashPointFired
            for handler in node.handlers:
                names = _handler_names(handler)
                if CRASH_EXC in names:
                    if _reraises(handler):
                        crash_safe = True
                    else:
                        yield module.finding(
                            self.id,
                            handler,
                            "except clause catches CrashPointFired without "
                            "re-raising — injected crashes must always "
                            "propagate to the harness",
                        )
                    continue
                if _catches_all(handler) and not crash_safe and not _reraises(handler):
                    what = "bare except" if handler.type is None else (
                        "except " + "/".join(sorted(names & BROAD_NAMES))
                    )
                    yield module.finding(
                        self.id,
                        handler,
                        f"{what} can swallow CrashPointFired — narrow to the "
                        "concrete exception types, or re-raise CrashPointFired "
                        "in an earlier handler",
                    )

    # -- per-module: unbracketed commits --------------------------------------

    def _scan_commits(self, module: "ModuleInfo") -> Iterator[Finding]:
        for fn in ast.walk(module.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method_calls = [
                (node.func.attr, node)
                for node in _own_nodes(fn.body)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            ]
            if any(method == "reach" for method, _ in method_calls):
                continue
            for method, call in method_calls:
                if method in COMMIT_TOKENS:
                    yield module.finding(
                        self.id,
                        call,
                        f"MANIFEST commit in {fn.name}() with no reach() crash "
                        "site in the function's own body — no crash test "
                        "can explore the window this commit closes "
                        "(crash-coverage gap)",
                    )

    # -- cross-file: registry consistency -------------------------------------

    def check_facts(self, files: list["FileFacts"]) -> Iterable[Finding]:
        registered: dict[str, "Site"] | None = next(
            (facts.registry for facts in files if facts.registry is not None), None
        )
        if registered is None:
            return ()  # no CRASH_SITES in the linted tree: nothing to check
        findings: list[Finding] = []
        reached: set[str] = set()
        for facts in files:
            for name, site in sorted(facts.reaches.items()):
                reached.add(name)
                if name not in registered:
                    findings.append(
                        site.finding(
                            self.id,
                            f"reach({name!r}) names a crash point missing "
                            f"from {REGISTRY_NAME} — arming and site "
                            "enumeration cannot see it",
                        )
                    )
        for name in sorted(registered):
            if name not in reached:
                findings.append(
                    registered[name].finding(
                        self.id,
                        f"{REGISTRY_NAME} registers {name!r} but no "
                        "reach() call site exists — no crash test can "
                        "fire it",
                    )
                )
        return findings
