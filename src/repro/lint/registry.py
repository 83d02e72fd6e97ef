"""Rule base class and registry.

Rules self-register at import time via the :func:`register` decorator;
:mod:`repro.lint.rules` imports every rule module so the registry is
complete as soon as the engine loads. Third-party checks can plug in the
same way before calling the engine.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, TypeVar

from repro.lint.finding import Finding

if TYPE_CHECKING:
    from repro.lint.engine import ModuleInfo
    from repro.lint.summaries import FileFacts


class Rule:
    """One static check. Subclass, set the metadata, implement a hook.

    ``check_module`` runs once per parsed file. ``check_facts`` runs once
    per engine run over the :class:`~repro.lint.summaries.FileFacts` of
    every file and is where cross-file invariants live (RL003's registry
    consistency, RL004's class-hierarchy resolution, RL010's suppression
    hygiene); the ASTs are gone by then, so facts are all it sees. Either
    hook may be omitted.
    """

    id: str = ""
    name: str = ""
    description: str = ""

    def check_module(self, module: "ModuleInfo") -> Iterable[Finding]:
        return ()

    def check_facts(self, files: list["FileFacts"]) -> Iterable[Finding]:
        return ()


_REGISTRY: dict[str, Rule] = {}

R = TypeVar("R", bound=type[Rule])


def register(rule_cls: R) -> R:
    """Class decorator adding a rule (by its ``id``) to the registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> Iterator[Rule]:
    """Registered rules in id order (imports rule modules on first use)."""
    _ensure_loaded()
    for rule_id in sorted(_REGISTRY):
        yield _REGISTRY[rule_id]


def get_rule(rule_id: str) -> Rule:
    _ensure_loaded()
    return _REGISTRY[rule_id]


def _ensure_loaded() -> None:
    # Importing the rules package registers every built-in rule exactly
    # once; repeat imports are no-ops thanks to sys.modules.
    import repro.lint.rules  # noqa: F401
