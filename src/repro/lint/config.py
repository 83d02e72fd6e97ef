"""This repository's lint policy: scopes, whitelists and windows.

Scopes are *package-relative* paths: the engine maps every linted file to
its path below the ``repro`` package (``src/repro/storage/local.py`` →
``storage/local.py``), so the same rules work on the real tree and on the
miniature fixture trees the self-tests build under ``tmp/repro/…``.
"""

from __future__ import annotations

#: Package-relative directories that run purely on the simulated clock.
#: RL005 (no real I/O) scopes to these.
SIM_SCOPES: tuple[str, ...] = ("lsm/", "mash/", "storage/", "sim/")

#: Exception names that may be raised without deriving from ReproError.
#: Python-idiom programming-error types plus CrashPointFired, which is
#: deliberately *not* a ReproError so nothing can catch-and-survive it.
RAISE_WHITELIST: tuple[str, ...] = (
    "AssertionError",
    "AttributeError",
    "CrashPointFired",
    "IndexError",
    "KeyError",
    "KeyboardInterrupt",
    "NotImplementedError",
    "StopAsyncIteration",
    "StopIteration",
    "SystemExit",
    "TypeError",
    "ValueError",
)

#: Call tokens that commit durable metadata (RL003's commit-bracket check
#: anchors on these).
COMMIT_TOKENS: tuple[str, ...] = ("log_and_apply",)

#: Package-relative scopes for RL003's commit-bracket check. The crash
#: protocol lives in the LSM core and the hybrid layer; sim/storage device
#: code and serving glue never commit MANIFEST edits of their own.
CRASH_WINDOW_SCOPES: tuple[str, ...] = ("lsm/", "mash/")

#: RL002: a ``.charge(`` this many lines *above* an ``.advance(`` still
#: counts as its pair (charge-then-advance ordering).
CHARGE_WINDOW_BEFORE = 2

#: RL002: a ``.charge(`` this many lines *below* an ``.advance(`` still
#: counts as its pair (the common advance-then-mirror ordering).
CHARGE_WINDOW_AFTER = 6

#: Path components that exclude a file from collection.
EXCLUDE_PARTS: tuple[str, ...] = ("__pycache__",)


def in_scopes(pkg_path: str, scopes: tuple[str, ...]) -> bool:
    """Whether a package-relative path falls under any scope prefix."""
    return any(pkg_path.startswith(scope) for scope in scopes)
