"""Lint findings and their content fingerprints."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a source location.

    Attributes:
        rule: rule identifier (``RL001`` … ``RL010``; ``RL000`` marks a
            file the engine could not parse).
        path: file path relative to the linted root, POSIX separators.
        line: 1-based line of the offending node (0 for whole-file findings).
        col: 0-based column of the offending node.
        message: human-readable description of the violation.
        snippet: the stripped source line, used for fingerprinting so a
            finding keeps its identity across edits that only shift lines.
        end_line: 1-based last line of the offending node (0 = same as
            ``line``); suppressions on any line of a multi-line statement
            apply to the finding.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""
    end_line: int = 0

    @property
    def fingerprint(self) -> str:
        """Content hash identifying this finding across edits (SARIF
        ``partialFingerprints``).

        Hashes (rule, path, whitespace-normalized snippet) — no line
        numbers, so edits above the finding don't change it, and no
        message, so rewording a rule's diagnostics doesn't either. Two
        findings of one rule on identical source lines in the same file
        share a fingerprint.
        """
        normalized = " ".join(self.snippet.split())
        basis = "\x1f".join((self.rule, self.path, normalized))
        return hashlib.sha256(basis.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line or self.line,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output (summary cache)."""
        return cls(
            rule=doc["rule"],
            path=doc["path"],
            line=doc["line"],
            col=doc["col"],
            message=doc["message"],
            snippet=doc.get("snippet", ""),
            end_line=doc.get("end_line", 0),
        )

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class FindingCollector:
    """Accumulates findings for one lint run."""

    findings: list[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def sorted(self) -> list[Finding]:
        return sorted(
            self.findings, key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
        )
