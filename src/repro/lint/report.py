"""Finding reporters: human text and machine JSON."""

from __future__ import annotations

import json
from collections import Counter
from typing import Any

from repro.lint.finding import Finding
from repro.lint.registry import all_rules


def render_text(findings: list[Finding]) -> str:
    """Compiler-style lines plus a per-rule summary."""
    lines = [
        f"{f.location()}: {f.rule} {f.message}"
        for f in findings
    ]
    counts = Counter(f.rule for f in findings)
    if findings:
        summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
        lines.append("")
        lines.append(f"{len(findings)} finding(s) ({summary})")
    else:
        lines.append("reprolint: clean")
    return "\n".join(lines) + "\n"


def render_json(findings: list[Finding]) -> str:
    """Stable JSON document (sorted keys, newline-terminated)."""
    doc: dict[str, Any] = {
        "version": 1,
        "findings": [f.to_dict() for f in findings],
        "counts": dict(sorted(Counter(f.rule for f in findings).items())),
        "clean": not findings,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_rules() -> str:
    """The rule catalog, for ``--list-rules``."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"       {rule.description}")
    return "\n".join(lines) + "\n"
