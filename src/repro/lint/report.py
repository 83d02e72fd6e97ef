"""Finding reporters: human text, machine JSON, and SARIF for CI."""

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


SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"


def render_sarif(findings: list[Finding]) -> str:
    """SARIF 2.1.0 document — what GitHub code scanning ingests.

    Every registered rule is described in the tool section (so CI
    annotations link to the catalog entry even for rules with zero
    results); each result carries :attr:`Finding.fingerprint` as a
    ``partialFingerprints`` entry, letting SARIF consumers dedupe across
    runs.
    """
    rules_meta = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
        }
        for rule in all_rules()
    ]
    results = []
    for f in findings:
        region: dict[str, Any] = {
            "startLine": max(f.line, 1),
            "startColumn": f.col + 1,
        }
        if f.end_line and f.end_line > f.line:
            region["endLine"] = f.end_line
        if f.snippet:
            region["snippet"] = {"text": f.snippet}
        results.append(
            {
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": f.path,
                                "uriBaseId": "SRCROOT",
                            },
                            "region": region,
                        }
                    }
                ],
                "partialFingerprints": {"reprolintFingerprint/v2": f.fingerprint},
            }
        )
    doc: dict[str, Any] = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "reprolint",
                        "rules": rules_meta,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_rules() -> str:
    """The rule catalog, for ``--list-rules``."""
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"       {rule.description}")
    return "\n".join(lines) + "\n"
