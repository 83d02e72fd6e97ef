"""RL009 — resource lifecycle: scans closed, regions joined or reaped.

Two resource kinds with real leak consequences in this tree:

* **scan generators** — ``DB.scan``/``scan_reverse`` pin a Version (its
  table files survive compaction until unpinned) and register a live-
  iterator guard; an unclosed generator defers file deletes
  indefinitely. Sanctioned dispositions, checked per call site in
  summaries.py: ``with closing(...)``, full consumption (a ``for`` with
  no ``break``/``return``, or a consuming builtin like ``list``/
  ``sorted``), ``return``/``yield from`` (ownership transfer), a name
  that is closed or returned, or being passed directly to a callee —
  resolved here, cross-file, against the callee's summary — that closes
  that parameter (``facade.take_rows``' ``with closing(rows)`` idiom).
* **fork/join regions** — a ``ForkJoinRegion`` that entered ``branch()``
  must either ``join()`` in the same function or be *stored* (assigned
  into an attribute/container, passed on, or returned) for deferred
  reaping — the prefetch ``self._pending[...] = region`` idiom. A region
  that is branched and then dropped silently loses its branches' clock
  contributions: the join barrier never runs.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.lint.finding import Finding
from repro.lint.registry import Rule, register
if TYPE_CHECKING:
    from repro.lint.callgraph import CallGraph, ProjectFacts
    from repro.lint.summaries import FileFacts, SiteRef


def _finding(rule_id: str, facts: FileFacts, site: SiteRef, message: str) -> Finding:
    return Finding(
        rule=rule_id,
        path=facts.rel_path,
        line=site.line,
        col=site.col,
        end_line=site.end_line,
        message=message,
        snippet=site.snippet,
    )


@register
class ResourceLifecycleRule(Rule):
    id = "RL009"
    name = "resource-lifecycle"
    description = (
        "scan generators are closed on all paths (closing(), full "
        "consumption, or a closing callee); branched ForkJoinRegions are "
        "joined or stored for deferred reaping"
    )

    def check_facts(self, project: "ProjectFacts") -> Iterable[Finding]:
        graph = project.graph
        findings: list[Finding] = []
        for facts in project.files:
            for fn in facts.functions:
                for scan in fn.scans:
                    if scan.disposition == "arg":
                        if self._callee_closes(graph, scan.callee, scan.arg_pos):
                            continue
                        findings.append(
                            _finding(
                                self.id,
                                facts,
                                scan.site,
                                f"scan generator passed to {scan.callee}(), "
                                "which does not close that parameter on "
                                "all paths — the pinned version leaks",
                            )
                        )
                    else:
                        findings.append(
                            _finding(
                                self.id,
                                facts,
                                scan.site,
                                f"unclosed scan generator: {scan.detail} — "
                                "wrap in contextlib.closing() or close in "
                                "a finally block",
                            )
                        )
                for region in fn.regions:
                    if region.branches and not region.joined and not region.stored:
                        findings.append(
                            _finding(
                                self.id,
                                facts,
                                region.site,
                                "ForkJoinRegion is branched but neither "
                                "joined nor stored for deferred reaping — "
                                "the join barrier (and its clock merge) "
                                "never runs",
                            )
                        )
        return findings

    def _callee_closes(
        self, graph: "CallGraph", callee: str, arg_pos: int
    ) -> bool:
        """Whether every project function named ``callee`` closes the
        parameter at ``arg_pos``. Unresolvable callees pass — this is a
        linter, not a type checker."""
        targets = graph.resolve(callee)
        if not targets:
            return True
        for fn in targets:
            params = fn.params
            if arg_pos >= len(params):
                return False
            if params and params[0] == "self":
                # The scan argument lands one position later for methods.
                index = arg_pos + 1
            else:
                index = arg_pos
            if index >= len(params) or params[index] not in fn.closes_params:
                return False
        return True
