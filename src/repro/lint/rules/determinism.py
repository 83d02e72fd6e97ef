"""RL001 — determinism: no wall clocks or ambient randomness.

Every figure this reproduction produces is derived from the simulated
clock; a single ``time.time()`` or unseeded ``random.random()`` silently
turns "byte-identical replay" into "usually similar replay". This rule
bans, anywhere under ``repro``:

* wall-clock reads: ``time.time/monotonic/perf_counter`` (and ``_ns``
  variants) and real sleeps (``time.sleep``);
* calendar reads: ``datetime.now/utcnow/today``, ``date.today``;
* ambient randomness: any call through the ``random`` *module* (module
  functions share hidden global state — use a seeded ``random.Random``
  instance instead; constructing one is allowed) and ``os.urandom``;
* unsorted directory listings: ``os.listdir``/``os.scandir`` not
  immediately wrapped in ``sorted(...)`` — host filesystems return
  arbitrary order, which leaks into recovery and compaction schedules.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.lint.finding import Finding
from repro.lint.registry import Rule, register
from repro.lint.rules._ast_util import dotted_name, walk_calls

if TYPE_CHECKING:
    from repro.lint.engine import ModuleInfo

#: (qualified call, why it is banned). Matched on the trailing components of
#: the dotted call chain, so ``datetime.datetime.now`` hits ``datetime.now``.
BANNED_CALLS: dict[str, str] = {
    "time.time": "wall-clock read breaks deterministic replay; use SimClock",
    "time.time_ns": "wall-clock read breaks deterministic replay; use SimClock",
    "time.monotonic": "wall-clock read breaks deterministic replay; use SimClock",
    "time.monotonic_ns": "wall-clock read breaks deterministic replay; use SimClock",
    "time.perf_counter": "wall-clock read breaks deterministic replay; use SimClock",
    "time.perf_counter_ns": "wall-clock read breaks deterministic replay; use SimClock",
    "time.sleep": "real sleep breaks deterministic replay; advance SimClock instead",
    "datetime.now": "calendar read breaks deterministic replay",
    "datetime.utcnow": "calendar read breaks deterministic replay",
    "datetime.today": "calendar read breaks deterministic replay",
    "date.today": "calendar read breaks deterministic replay",
    "os.urandom": "OS entropy is unseedable; use a seeded random.Random",
}

#: ``random.<attr>`` calls that are allowed: constructing an explicitly
#: seeded generator is the sanctioned pattern.
ALLOWED_RANDOM_ATTRS = frozenset({"Random"})

LISTING_CALLS = frozenset({"os.listdir", "os.scandir"})


def _suffix_matches(dotted: str, pattern: str) -> bool:
    """``a.b.c`` matches pattern ``b.c`` on dotted-component boundaries."""
    return dotted == pattern or dotted.endswith("." + pattern)


def _sorted_wrapped(tree: ast.AST) -> set[int]:
    """ids of Call nodes appearing directly as ``sorted(...)``'s first arg."""
    wrapped: set[int] = set()
    for call in walk_calls(tree):
        if isinstance(call.func, ast.Name) and call.func.id == "sorted" and call.args:
            first = call.args[0]
            if isinstance(first, ast.Call):
                wrapped.add(id(first))
    return wrapped


@register
class DeterminismRule(Rule):
    id = "RL001"
    name = "determinism"
    description = (
        "bans wall clocks, ambient randomness, and unsorted directory "
        "listings everywhere under repro"
    )

    def check_module(self, module: "ModuleInfo") -> Iterable[Finding]:
        return list(self._scan(module))

    def _scan(self, module: "ModuleInfo") -> Iterator[Finding]:
        wrapped = _sorted_wrapped(module.tree)
        for call in walk_calls(module.tree):
            dotted = dotted_name(call.func)
            if dotted is None:
                continue
            if any(_suffix_matches(dotted, p) for p in LISTING_CALLS):
                if id(call) not in wrapped:
                    yield module.finding(
                        self.id,
                        call,
                        f"{dotted}() order is filesystem-dependent; wrap the "
                        "call directly in sorted(...)",
                    )
                continue
            for pattern, why in BANNED_CALLS.items():
                if _suffix_matches(dotted, pattern):
                    yield module.finding(self.id, call, f"{dotted}(): {why}")
                    break
            else:
                head, _, attr = dotted.rpartition(".")
                if head == "random" and attr not in ALLOWED_RANDOM_ATTRS:
                    yield module.finding(
                        self.id,
                        call,
                        f"{dotted}(): module-level random shares hidden global "
                        "state; use a seeded random.Random instance",
                    )
