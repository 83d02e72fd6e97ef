"""RL010 — suppression hygiene: ``ignore[...]`` must name real rules.

A suppression that names a rule id the linter does not know — an
``ignore[RL042]``, or a typo like ``RL0006`` — suppresses nothing,
silently. Usually it means the rule was renamed/retired and the
comment went stale, or the author fat-fingered the id and believes a
finding is suppressed when it is not. Either way the comment is dead
weight that *looks* load-bearing, so it gets a warning instead of a
silent pass.

``RL000`` (the parse-failure pseudo-rule) is accepted; bare ``ignore``
with no bracket list names no rules and is out of scope here.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.lint.finding import Finding
from repro.lint.registry import Rule, all_rules, register

if TYPE_CHECKING:
    from repro.lint.summaries import FileFacts


@register
class SuppressionHygieneRule(Rule):
    id = "RL010"
    name = "suppression-hygiene"
    description = (
        "reprolint: ignore[...] comments must name rule ids that exist — "
        "a stale or misspelled id suppresses nothing"
    )

    def check_facts(self, files: list["FileFacts"]) -> Iterable[Finding]:
        known = {rule.id for rule in all_rules()} | {"RL000"}
        findings: list[Finding] = []
        for facts in files:
            for site, ids in facts.suppression_comments:
                for rule_id in ids:
                    if rule_id in known:
                        continue
                    findings.append(
                        site.finding(
                            self.id,
                            f"suppression names unknown rule {rule_id} "
                            "(stale or misspelled?) — it suppresses "
                            "nothing; fix the id or delete it",
                        )
                    )
        return findings
