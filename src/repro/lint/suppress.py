"""Per-line suppression comments.

Syntax (the ``--`` reason is encouraged but not enforced)::

    risky_call()  # reprolint: ignore[RL001] -- seeded at startup
    # reprolint: ignore[RL002, RL005] -- device module, real bytes intended
    whole_line_suppressed_by_comment_above()

``ignore`` without a bracket list suppresses every rule on that line; a
bracket list suppresses only the named rules. A comment-only line applies
to the next source line, so wrapped statements stay suppressible.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from repro.lint.finding import Finding

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?"
)

#: Sentinel set meaning "every rule suppressed on this line".
ALL_RULES = frozenset({"*"})


def iter_suppression_comments(lines: list[str]) -> Iterator[tuple[int, frozenset[str]]]:
    """(1-based line, rule ids named there) for every suppression comment.

    The id set is empty for a bare ``ignore``, which names no rules.
    """
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is not None:
            rules_text = match.group("rules") or ""
            yield lineno, frozenset(
                token.strip().upper()
                for token in rules_text.split(",")
                if token.strip()
            )


def parse_suppressions(lines: list[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule ids suppressed there.

    A suppression written on a line that holds only a comment is attached
    to the *following* line as well, covering multi-line statements whose
    trailing comment would not fit. When the following lines are decorator
    lines (``@…``), the suppression propagates past them to the decorated
    ``def``/``class`` itself — findings anchor on the definition node, not
    its decorators.
    """
    suppressed: dict[int, frozenset[str]] = {}
    for lineno, named in iter_suppression_comments(lines):
        rules = named or ALL_RULES
        targets = [lineno]
        if lines[lineno - 1].lstrip().startswith("#"):
            target = lineno + 1
            targets.append(target)
            # Skip over a decorator stack to the definition it decorates.
            while (
                target <= len(lines)
                and lines[target - 1].lstrip().startswith("@")
            ):
                target += 1
                targets.append(target)
        for target in targets:
            existing = suppressed.get(target, frozenset())
            suppressed[target] = existing | rules
    return suppressed


def is_suppressed(
    suppressions: dict[int, frozenset[str]], finding: Finding
) -> bool:
    """Whether a suppression on any line the finding spans names its rule."""
    end = max(finding.end_line, finding.line)
    for line in range(finding.line, end + 1):
        rules = suppressions.get(line)
        if rules is not None and ("*" in rules or finding.rule in rules):
            return True
    return False
