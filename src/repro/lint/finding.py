"""Lint findings and the source locations they anchor on."""

from __future__ import annotations

from dataclasses import dataclass
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
        snippet: the stripped source line, shown by the JSON report.
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

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line or self.line,
            "message": self.message,
            "snippet": self.snippet,
        }

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> tuple[str, int, int, str, str]:
        """Report order: by location, then rule, then message."""
        return (self.path, self.line, self.col, self.rule, self.message)


@dataclass(frozen=True, slots=True)
class Site:
    """A source location remembered after its AST is gone — what a
    cross-file rule needs to anchor a finding on another file's line."""

    path: str
    line: int
    col: int
    end_line: int
    snippet: str

    def finding(self, rule_id: str, message: str) -> Finding:
        return Finding(
            rule=rule_id,
            path=self.path,
            line=self.line,
            col=self.col,
            message=message,
            snippet=self.snippet,
            end_line=self.end_line,
        )
