"""reprolint — AST-based invariant linter for the simulated-clock store.

The repo's core guarantees — deterministic replay on the simulated clock,
per-span tier conservation (``local + cloud + cpu == elapsed``), crash
points that always propagate — are dynamic properties a test run can only
sample. :mod:`repro.lint` turns them into machine-checked *static* rules
that fail at commit time:

========  ==================================================================
RL001     determinism: no wall clocks, unseeded randomness, or unsorted
          directory listings anywhere under ``repro``
RL002     charge attribution: every ``clock.advance`` in ``storage/``,
          ``mash/``, ``lsm/`` is lexically paired with a tracer tier charge
RL003     crash-point hygiene: no except handler can swallow
          ``CrashPointFired``; every ``reach("<site>")`` literal matches the
          ``CRASH_SITES`` registry and vice versa; a function that commits
          a MANIFEST edit names a crash site
RL004     error taxonomy: raised exceptions derive from ``ReproError``
          (explicit whitelist for Python-idiom types)
RL005     no real I/O on simulated paths: ``lsm/``, ``mash/``, ``storage/``,
          ``sim/`` never touch ``open()``/``os``/``threading``/``socket``
RL010     suppression hygiene: ``ignore[...]`` names rule ids that exist
========  ==================================================================

RL006–RL009 (fork/join races, durability ordering, crash-window
annotations, resource lifecycle) were retired once tier-1 was shown to
catch their seeded defects dynamically; DESIGN.md §7 has the audit. The
ids are not reused.

Usage::

    python -m repro.lint src                 # exit 0 = clean, 1 = findings
    python -m repro.lint src --format json

Per-line suppression (same line or the comment line directly above)::

    something_flagged()  # reprolint: ignore[RL005] -- deliberate, reason
"""

from repro.lint.config import SIM_SCOPES
from repro.lint.engine import LintEngine, lint_paths
from repro.lint.finding import Finding
from repro.lint.registry import Rule, all_rules, get_rule, register

__all__ = [
    "Finding",
    "LintEngine",
    "Rule",
    "SIM_SCOPES",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register",
]
