"""Command-line front end: ``python -m repro.lint``.

Exit codes are stable API for CI:

* ``0`` — no findings.
* ``1`` — at least one finding.
* ``2`` — usage or configuration error (bad arguments, missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import LintEngine
from repro.lint.registry import all_rules
from repro.lint.report import render_json, render_rules, render_text

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="reprolint — AST-based invariant linter for the repro tree",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="RL001,RL002",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        sys.stdout.write(render_rules())
        return EXIT_CLEAN

    enabled: tuple[str, ...] | None = None
    if args.rules is not None:
        enabled = tuple(
            token.strip().upper() for token in args.rules.split(",") if token.strip()
        )
        known = {rule.id for rule in all_rules()}
        unknown = [rule_id for rule_id in enabled if rule_id not in known]
        if unknown:
            sys.stderr.write(f"unknown rule id(s): {', '.join(unknown)}\n")
            return EXIT_USAGE

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        sys.stderr.write(f"no such path: {', '.join(missing)}\n")
        return EXIT_USAGE

    findings = LintEngine(enabled).run(paths)
    report = render_json(findings) if args.format == "json" else render_text(findings)
    if args.output is not None:
        Path(args.output).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    return EXIT_FINDINGS if findings else EXIT_CLEAN
