"""RL002 — charge attribution: every ``clock.advance`` has a tier mirror.

The observability invariant ``local + cloud + cpu == elapsed`` (DESIGN §6)
holds only because every ``clock.advance(cost)`` in the storage backends is
mirrored by a ``tracer.charge(tier, cost)`` at the same site. A new charge
site that advances the clock without the mirror silently un-conserves every
span above it — and the hypothesis property that guards conservation only
samples the paths its workloads happen to drive.

This rule requires each ``*.advance(...)`` call inside ``storage/``,
``mash/`` and ``lsm/`` to be *lexically paired* with a ``*.charge(...)``
call nearby (a small line window around the advance, covering both the
``advance``-then-mirror idiom and charge-first orderings). Clock plumbing
that legitimately advances without a device charge (e.g. pure queueing
models) must carry an explicit ``# reprolint: ignore[RL002]`` with a
reason, making unattributed time a reviewed decision rather than drift.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.lint.config import CHARGE_WINDOW_AFTER, CHARGE_WINDOW_BEFORE, in_scopes
from repro.lint.finding import Finding
from repro.lint.registry import Rule, register
from repro.lint.rules._ast_util import walk_calls

if TYPE_CHECKING:
    from repro.lint.engine import ModuleInfo

#: Package-relative scopes whose advance sites must be tier-attributed.
CHARGE_SCOPES: tuple[str, ...] = ("storage/", "mash/", "lsm/")


def _attr_call_lines(tree: ast.AST, attr: str) -> list[tuple[int, ast.Call]]:
    out = []
    for call in walk_calls(tree):
        if isinstance(call.func, ast.Attribute) and call.func.attr == attr:
            out.append((call.lineno, call))
    return out


@register
class ChargeAttributionRule(Rule):
    id = "RL002"
    name = "charge-attribution"
    description = (
        "every clock.advance in storage/, mash/, lsm/ must be lexically "
        "paired with a tracer tier charge"
    )

    def check_module(self, module: "ModuleInfo") -> Iterable[Finding]:
        if not in_scopes(module.pkg_path, CHARGE_SCOPES):
            return ()
        return list(self._scan(module))

    def _scan(self, module: "ModuleInfo") -> Iterator[Finding]:
        advances = _attr_call_lines(module.tree, "advance")
        if not advances:
            return
        charge_lines = sorted(line for line, _ in _attr_call_lines(module.tree, "charge"))
        for line, call in advances:
            paired = any(
                line - CHARGE_WINDOW_BEFORE <= charge_line <= line + CHARGE_WINDOW_AFTER
                for charge_line in charge_lines
            )
            if not paired:
                yield module.finding(
                    self.id,
                    call,
                    "clock.advance() without a nearby tracer.charge(tier, …) "
                    "mirror — tier conservation (local+cloud+cpu == elapsed) "
                    "cannot hold; add the charge or suppress with a reason",
                )
