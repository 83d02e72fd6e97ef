"""RL005 — no real I/O on simulated paths.

Everything under ``lsm/``, ``mash/``, ``storage/`` and ``sim/`` is supposed
to run purely against the simulated clock and the in-memory devices: host
filesystem access, threads, or sockets there make timing host-dependent and
break both replay determinism and the crash model (a real file survives
``LocalDevice.crash()``; an unsynced simulated one must not).

Banned inside the simulated scopes:

* importing a real-I/O module (``os``, ``pathlib``, ``shutil``,
  ``tempfile``, ``socket``, ``threading``, ``multiprocessing``,
  ``subprocess``, ``mmap``, ``asyncio``);
* calling the ``open()`` builtin.

No module opts out; a site that must needs an inline
``# reprolint: ignore[RL005]`` with a reason.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.lint.config import SIM_SCOPES, in_scopes
from repro.lint.finding import Finding
from repro.lint.registry import Rule, register
from repro.lint.rules._ast_util import walk_calls

if TYPE_CHECKING:
    from repro.lint.engine import ModuleInfo

BANNED_MODULES = frozenset(
    {
        "asyncio",
        "mmap",
        "multiprocessing",
        "os",
        "pathlib",
        "shutil",
        "socket",
        "subprocess",
        "tempfile",
        "threading",
    }
)


@register
class RealIORule(Rule):
    id = "RL005"
    name = "no-real-io"
    description = (
        "lsm/, mash/, storage/, sim/ must not open files, spawn threads, or "
        "touch sockets"
    )

    def check_module(self, module: "ModuleInfo") -> Iterable[Finding]:
        if not in_scopes(module.pkg_path, SIM_SCOPES):
            return ()
        return list(self._scan(module))

    def _scan(self, module: "ModuleInfo") -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES:
                        yield module.finding(
                            self.id,
                            node,
                            f"import {alias.name}: real-I/O module on a "
                            "simulated path — use the Env/device abstractions",
                        )
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if node.level == 0 and root in BANNED_MODULES:
                    yield module.finding(
                        self.id,
                        node,
                        f"from {node.module} import …: real-I/O module on a "
                        "simulated path — use the Env/device abstractions",
                    )
        for call in walk_calls(module.tree):
            if isinstance(call.func, ast.Name) and call.func.id == "open":
                yield module.finding(
                    self.id,
                    call,
                    "open(): host-filesystem access on a simulated path — "
                    "read through the Env/device abstractions",
                )
