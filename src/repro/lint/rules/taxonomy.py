"""RL004 — error taxonomy: raised exceptions derive from ``ReproError``.

Callers of this library are promised a single catchable root
(:class:`repro.errors.ReproError`) mirroring RocksDB's ``Status`` taxonomy.
An ad-hoc ``raise RuntimeError(...)`` deep in the compaction path escapes
that contract and tends to get caught by nobody (or, worse, by a broad
handler that was only expecting library errors).

The rule resolves each ``raise X(...)`` / ``raise X`` statement:

* classes defined anywhere in the linted tree are resolved through their
  base-class chain (cross-file) — deriving from ``ReproError`` passes;
* a whitelist admits Python-idiom programming-error types (``ValueError``,
  ``TypeError``, ``KeyError`` …) and ``CrashPointFired``, which must *not*
  be a ReproError so nothing can catch-and-survive it;
* other builtin exceptions (``Exception``, ``RuntimeError``, ``OSError``,
  …) are violations;
* names that resolve to neither (e.g. ``raise exc`` re-raising a captured
  variable) are left alone — this is a linter, not a type checker.
"""

from __future__ import annotations

import builtins
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.lint.config import RAISE_WHITELIST
from repro.lint.finding import Finding
from repro.lint.registry import Rule, register

if TYPE_CHECKING:
    from repro.lint.summaries import FileFacts

ROOT_EXC = "ReproError"

#: Builtin exception class names, derived from the running interpreter.
BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)


def _derives_from_root(
    name: str, table: dict[str, list[str]], whitelist: frozenset[str]
) -> bool | None:
    """True/False when resolvable; ``None`` when the name is unknown."""
    seen: set[str] = set()
    pending = [name]
    resolvable = False
    while pending:
        cur = pending.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if cur == ROOT_EXC or cur in whitelist:
            return True
        if cur in table:
            resolvable = True
            pending.extend(table[cur])
        elif cur in BUILTIN_EXCEPTIONS:
            resolvable = True  # known class, known to not reach the root
    return False if resolvable else None


@register
class ErrorTaxonomyRule(Rule):
    id = "RL004"
    name = "error-taxonomy"
    description = (
        "raised exceptions must derive from ReproError (whitelist for "
        "Python-idiom types and CrashPointFired)"
    )

    def check_facts(self, files: list["FileFacts"]) -> Iterable[Finding]:
        table: dict[str, list[str]] = {}
        for facts in files:
            for name, bases in facts.classes.items():
                table.setdefault(name, bases)
        whitelist = frozenset(RAISE_WHITELIST)
        findings: list[Finding] = []
        for facts in files:
            for name, site in facts.raises:
                verdict = _derives_from_root(name, table, whitelist)
                if verdict is False:
                    findings.append(
                        site.finding(
                            self.id,
                            f"raise {name}: not a ReproError subclass and "
                            "not whitelisted — callers are promised a "
                            "single catchable ReproError root",
                        )
                    )
        return findings
