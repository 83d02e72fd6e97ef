"""The lint engine: collect files, parse ASTs, run rules, filter findings.

The engine is intentionally filesystem-light: it reads sources, parses
them with :mod:`ast`, and hands immutable :class:`ModuleInfo` records to
the rules. Nothing is imported or executed, so linting a broken tree is
safe.

A run is one in-memory pass: collect the files; parse each one once and
run every per-file rule hook on it, keeping the few cross-file facts
(:class:`~repro.lint.summaries.FileFacts`) and dropping the tree; join
those facts in the three cross-file rules; drop findings of rules that
were not asked for and findings an inline ``# reprolint: ignore`` covers
(a finding spanning several lines is suppressed by a comment on any of
them); sort.
"""

from __future__ import annotations

import ast
import functools
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.lint.config import EXCLUDE_PARTS
from repro.lint.finding import Finding, Site
from repro.lint.registry import all_rules
from repro.lint.summaries import FileFacts, extract_file_facts
from repro.lint.suppress import is_suppressed, parse_suppressions

PARSE_ERROR_RULE = "RL000"


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source file, as seen by the rules.

    Attributes:
        rel_path: path relative to the linted root (for reporting).
        pkg_path: path relative to the innermost ``repro`` package
            directory (``storage/local.py``), which rule scopes key on; for
            files outside any ``repro`` directory this equals ``rel_path``.
        lines: the source split into lines (1-based via ``line(n)``).
        tree: parsed AST.
        suppressions: 1-based line → suppressed rule ids (``"*"`` = all).
    """

    rel_path: str
    pkg_path: str
    lines: list[str]
    tree: ast.Module
    suppressions: dict[int, frozenset[str]]

    def line(self, lineno: int) -> str:
        """The 1-based source line, or ``""`` out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def site(self, node: ast.AST) -> Site:
        """The location of ``node``, detached from the tree."""
        lineno = getattr(node, "lineno", 0)
        return Site(
            path=self.rel_path,
            line=lineno,
            col=getattr(node, "col_offset", 0),
            end_line=getattr(node, "end_lineno", 0) or lineno,
            snippet=self.line(lineno).strip(),
        )

    def finding(self, rule_id: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return self.site(node).finding(rule_id, message)


def _pkg_path(path: Path, root: Path) -> str:
    """Path below the innermost ``repro`` package directory.

    Falls back to the root-relative path when no ``repro`` component
    exists, so the engine still works on arbitrary trees.
    """
    parts = path.parts
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            return "/".join(parts[idx + 1 :])
    return _rel_path(path, root)


def _rel_path(path: Path, root: Path) -> str:
    if path.is_relative_to(root):
        return path.relative_to(root).as_posix()
    return str(path)


def collect_files(paths: list[Path]) -> list[tuple[Path, Path]]:
    """Expand files/directories into (file, root) pairs, sorted, deduped."""
    seen: set[Path] = set()
    out: list[tuple[Path, Path]] = []
    for raw in paths:
        root = raw.resolve()
        if root.is_file():
            candidates = [root]
            base = root.parent
        else:
            candidates = sorted(root.rglob("*.py"))
            base = root
        for file in candidates:
            if file in seen:
                continue
            if any(part in EXCLUDE_PARTS for part in file.parts):
                continue
            seen.add(file)
            out.append((file, base))
    return out


def _parse_error(rel_path: str, exc: Exception) -> Finding:
    return Finding(
        rule=PARSE_ERROR_RULE,
        path=rel_path,
        line=getattr(exc, "lineno", 0) or 0,
        col=getattr(exc, "offset", 0) or 0,
        message=f"could not parse file: {exc}",
    )


# Memoised on the text itself so a process that lints two nearly identical
# trees (the mutation self-tests) re-analyses only the files that differ.
# The result is shared between calls: callers must not mutate it.
@functools.lru_cache(maxsize=1024)
def analyze_source(
    rel_path: str, pkg_path: str, source: str
) -> tuple[tuple[Finding, ...], FileFacts]:
    """Everything one file contributes: its per-file findings (every rule,
    unfiltered, unsuppressed) and its cross-file facts."""
    try:
        tree = ast.parse(source, filename=rel_path)
    except (SyntaxError, ValueError) as exc:
        return (_parse_error(rel_path, exc),), FileFacts(rel_path=rel_path)
    lines = source.splitlines()
    module = ModuleInfo(
        rel_path=rel_path,
        pkg_path=pkg_path,
        lines=lines,
        tree=tree,
        suppressions=parse_suppressions(lines),
    )
    findings: list[Finding] = []
    for rule in all_rules():
        findings.extend(rule.check_module(module))
    return tuple(findings), extract_file_facts(module)


class LintEngine:
    """Runs the rules over a set of paths.

    Args:
        rules: rule ids to report; ``None`` reports every registered rule.
    """

    def __init__(self, rules: Iterable[str] | None = None) -> None:
        self.rules = None if rules is None else frozenset(rules)

    def run(self, paths: list[Path]) -> list[Finding]:
        """Lint ``paths``; returns sorted findings with suppressions applied."""
        findings: list[Finding] = []
        files: list[FileFacts] = []
        for file, root in collect_files(paths):
            rel = _rel_path(file, root)
            try:
                source = file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                findings.append(_parse_error(rel, exc))
                continue
            file_findings, facts = analyze_source(rel, _pkg_path(file, root), source)
            findings.extend(file_findings)
            files.append(facts)

        for rule in all_rules():
            findings.extend(rule.check_facts(files))

        suppressions = {facts.rel_path: facts.suppressions for facts in files}
        return sorted(
            (
                finding
                for finding in findings
                if self._wanted(finding.rule)
                and not is_suppressed(suppressions.get(finding.path, {}), finding)
            ),
            key=Finding.sort_key,
        )

    def _wanted(self, rule_id: str) -> bool:
        return self.rules is None or rule_id in self.rules or rule_id == PARSE_ERROR_RULE


def lint_paths(
    paths: list[str | Path], rules: Iterable[str] | None = None
) -> list[Finding]:
    """Convenience wrapper: lint files/directories, return findings."""
    return LintEngine(rules).run([Path(p) for p in paths])
