"""reprolint — the static checks behind the simulated-clock store's invariants.

Every figure this reproduction publishes is simulated time split by tier,
and rests on three properties: replay is deterministic, every span
conserves ``local + cloud + cpu == elapsed``, and an injected crash always
reaches the harness. Conservation holds by construction (the simulated
clock charges its own tracer); a test run can only sample the other two,
and the rules below check them at commit time. Nothing is imported or executed, so a broken tree lints
safely. Scopes key on the path below the innermost ``repro`` directory
(``src/repro/lsm/db.py`` → ``lsm/db.py``), so fixture trees under
``tmp/repro/…`` behave like the real package.

RL001 determinism (everywhere). Bans wall-clock reads (``time.time``,
    ``monotonic``, ``perf_counter`` and their ``_ns`` forms) and real sleeps;
    calendar reads (``datetime.now/utcnow/today``, ``date.today``); ambient
    randomness: any call through the ``random`` module except constructing a
    seeded ``random.Random``, and ``os.urandom``; and ``os.listdir`` /
    ``os.scandir`` not passed straight to ``sorted(...)``. Calls are matched
    after resolving the file's import aliases, so ``from time import
    perf_counter`` and ``import random as rnd`` are seen through.
RL003 crash-point hygiene. ``CrashPointFired`` is deliberately not a
    ``ReproError``, so nothing may catch and survive it: an ``except`` that
    names it, or catches everything (bare, ``Exception``, ``BaseException``),
    must re-raise with a bare ``raise`` in its own body, or follow a handler
    that re-raises ``CrashPointFired``. Every ``reach("<site>")`` literal
    names a key of the ``CRASH_SITES`` literal and every key is reached
    (checked only when the linted tree defines ``CRASH_SITES``). Under
    ``lsm/`` and ``mash/``, a function that commits a MANIFEST edit
    (``log_and_apply``) calls ``reach(...)`` in its own body.
RL004 error taxonomy. A raised class resolves, through the bases of every
    class in the linted tree, to ``ReproError`` or to a Python-idiom type in
    ``RAISE_WHITELIST``; other builtins fail and unresolvable names (``raise
    exc``) pass.
RL005 no real I/O (``lsm/``, ``mash/``, ``storage/``, ``sim/``). No import of
    a host-I/O module (``BANNED_MODULES``) and no ``open()`` builtin.
RL010 allowlist hygiene. A finding the code keeps on purpose is listed in
    ``ALLOWED`` as (package path, qualname, rule, reason) and matches every
    finding of that rule in that function. An entry naming an unknown rule
    is a finding. So is an entry that matched nothing, when the run linted
    both its file and this module: the allowlist is judged against the tree
    that ships it, not against a subtree or a fixture.
RL000 marks a file that could not be read or parsed.

RL006–RL009 (fork/join races, durability ordering, crash-window
annotations, resource lifecycle) were retired once tier-1 was shown to
catch their seeded defects dynamically; DESIGN.md §7 has the audit. RL002
(charge attribution: a tracer mirror beside every ``clock.advance``) was
retired when the clock began charging its own tracer — there is no
separate mirror call left to forget. The ids are not reused.

Usage: ``python -m repro.lint [PATH ...]`` (default ``src``); exit 0 when
clean, 1 on any finding, 2 on a missing path.
"""

from __future__ import annotations

import ast
import builtins
import functools
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

RULES = ("RL001", "RL003", "RL004", "RL005", "RL010")
PARSE_ERROR_RULE = "RL000"

#: Findings kept on purpose: (package path, qualname, rule, reason).
ALLOWED: tuple[tuple[str, str, str, str], ...] = (
    ("lsm/db.py", "DB.open", "RL003",
     "creation-time brand: no acked state precedes it"),
    ("bench/experiments.py", "e19a_crash_recovery_shards", "RL003",
     "the E19 harness consumes the crash by design"),
    ("bench/__main__.py", "main", "RL001",
     "host-side progress report; no figure reads it"),
)

_WALL = "wall-clock read breaks deterministic replay; use SimClock"
_CALENDAR = "calendar read breaks deterministic replay"
#: RL001: call → why, matched on trailing dotted components of the resolved
#: call, so ``datetime.datetime.now`` hits ``datetime.now``.
BANNED_CALLS: dict[str, str] = {
    **{f"time.{fn}": _WALL for fn in (
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns")},
    "time.sleep": "real sleep breaks deterministic replay; advance SimClock instead",
    "datetime.now": _CALENDAR,
    "datetime.utcnow": _CALENDAR,
    "datetime.today": _CALENDAR,
    "date.today": _CALENDAR,
    "os.urandom": "OS entropy is unseedable; use a seeded random.Random",
}
ALLOWED_RANDOM_ATTRS = frozenset({"Random"})
LISTING_CALLS = ("os.listdir", "os.scandir")

#: RL003: handlers that catch everything, the commit calls, their scopes.
BROAD_NAMES = frozenset({"Exception", "BaseException"})
CRASH_EXC = "CrashPointFired"
REGISTRY_NAME = "CRASH_SITES"
COMMIT_TOKENS = frozenset({"log_and_apply"})
CRASH_WINDOW_SCOPES = ("lsm/", "mash/")

#: RL004: the root every raised class derives from, and the exceptions.
#: CrashPointFired must *not* be a ReproError, so nothing can survive it.
ROOT_EXC = "ReproError"
RAISE_WHITELIST = frozenset({
    "AssertionError", "AttributeError", "CrashPointFired", "IndexError",
    "KeyError", "KeyboardInterrupt", "NotImplementedError",
    "StopAsyncIteration", "StopIteration", "SystemExit", "TypeError",
    "ValueError",
})
BUILTIN_EXCEPTIONS = frozenset(
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
)

#: RL005: the simulated scopes, and the modules they may not import.
SIM_SCOPES = ("lsm/", "mash/", "storage/", "sim/")
BANNED_MODULES = frozenset({
    "asyncio", "mmap", "multiprocessing", "os", "pathlib", "shutil",
    "socket", "subprocess", "tempfile", "threading",
})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation; findings sort by location, then rule, then message.

    ``path`` is relative to the linted root; ``pkg_path`` and ``qualname``
    (the enclosing ``Class.method``, ``""`` at module level) are what an
    ``ALLOWED`` entry matches on.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    pkg_path: str = field(default="", compare=False)
    qualname: str = field(default="", compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


#: Where a cross-file finding anchors: (line, col, qualname).
Anchor = tuple[int, int, str]


@dataclass
class FileFacts:
    """What the cross-file checks need of one file, kept after its tree."""

    path: str
    pkg_path: str
    reaches: dict[str, Anchor] = field(default_factory=dict)
    registry: dict[str, Anchor] | None = None
    classes: dict[str, list[str]] = field(default_factory=dict)
    raises: list[tuple[str, Anchor]] = field(default_factory=list)

    def finding(self, anchor: Anchor, rule: str, message: str) -> Finding:
        line, col, qualname = anchor
        return Finding(self.path, line, col, rule, message, self.pkg_path, qualname)


@dataclass
class _Function:
    """RL003's commit check: one function's own ``reach`` and commit calls."""

    qualname: str
    reaches: bool = False
    commits: list[ast.Call] = field(default_factory=list)


#: A node still to visit: (node, enclosing qualname, enclosing function,
#: ids of the enclosing handlers). A nested def or lambda runs later, if
#: ever, so it starts a new function and owns none of those handlers.
_Frame = tuple[ast.AST, str, "_Function | None", tuple[int, ...]]


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _last_name(node: ast.expr) -> str | None:
    """The final identifier of a Name/Attribute chain (``a.b.C`` → ``C``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _str_const(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _suffix_matches(dotted: str, pattern: str) -> bool:
    """``a.b.c`` matches ``b.c`` on dotted-component boundaries."""
    return dotted == pattern or dotted.endswith("." + pattern)


def _handler_names(handler: ast.ExceptHandler) -> set[str]:
    """Exception class names a handler catches (empty for a bare except)."""
    if handler.type is None:
        return set()
    exprs = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {name for name in map(_last_name, exprs) if name is not None}


def _check_module(tree: ast.Module, path: str, pkg_path: str) -> tuple[list[Finding], FileFacts]:
    """Walk one file's AST once: its per-file findings and its facts."""
    facts = FileFacts(path, pkg_path)
    findings: list[Finding] = []

    def report(rule: str, node: ast.stmt | ast.expr | ast.ExceptHandler,
               qualname: str, message: str) -> None:
        findings.append(Finding(path, node.lineno, node.col_offset, rule,
                                message, pkg_path, qualname))

    sim = pkg_path.startswith(SIM_SCOPES)
    aliases: dict[str, str] = {}  # local name → the module path it binds
    calls: list[tuple[str, ast.Call, str]] = []  # RL001, judged after the walk
    sorted_args: set[int] = set()
    tries: list[tuple[ast.Try, str]] = []
    reraised: set[int] = set()  # handlers with a bare raise of their own
    functions: list[_Function] = []

    stack: list[_Frame] = [(tree, "", None, ())]
    while stack:
        node, qual, fn, handlers = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{qual}.{node.name}" if qual else node.name
            outer: list[ast.AST] = [*node.decorator_list]
            if isinstance(node, ast.ClassDef):
                facts.classes.setdefault(
                    node.name, [b for b in map(_last_name, node.bases) if b])
                outer += [*node.bases, *node.keywords]
                stack.extend((o, qual, fn, handlers) for o in outer)
                stack.extend((s, inner, fn, handlers) for s in node.body)
            else:
                body_fn = _Function(inner)
                functions.append(body_fn)
                outer += [node.args, *([node.returns] if node.returns else [])]
                stack.extend((o, qual, None, ()) for o in outer)
                stack.extend((s, inner, body_fn, ()) for s in node.body)
            continue
        children: list[ast.AST] = list(ast.iter_child_nodes(node))
        if isinstance(node, ast.Lambda):
            fn, handlers = None, ()
        elif isinstance(node, ast.ExceptHandler):
            handlers += (id(node),)
        elif isinstance(node, ast.Call):
            func = node.func
            dotted = _dotted(func)
            if dotted is not None:
                calls.append((dotted, node, qual))
            if isinstance(func, ast.Name):
                if func.id == "sorted" and node.args and isinstance(node.args[0], ast.Call):
                    sorted_args.add(id(node.args[0]))
                elif func.id == "open" and sim:
                    report("RL005", node, qual, "open(): host-filesystem access "
                           "on a simulated path — read through the Env/device "
                           "abstractions")
            elif isinstance(func, ast.Attribute):
                if func.attr == "reach":
                    if fn is not None:
                        fn.reaches = True
                    site = _str_const(node.args[0]) if node.args else None
                    if site is not None:
                        facts.reaches.setdefault(site, (node.lineno, node.col_offset, qual))
                elif func.attr in COMMIT_TOKENS and fn is not None:
                    fn.commits.append(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                aliases[alias.asname or top] = alias.name if alias.asname else top
                if sim and top in BANNED_MODULES:
                    report("RL005", node, qual, f"import {alias.name}: real-I/O "
                           "module on a simulated path — use the Env/device "
                           "abstractions")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            if sim and node.module.split(".")[0] in BANNED_MODULES:
                report("RL005", node, qual, f"from {node.module} import …: "
                       "real-I/O module on a simulated path — use the "
                       "Env/device abstractions")
        elif isinstance(node, ast.Raise):
            if node.exc is None:
                reraised.update(handlers)
            else:
                exc = node.exc
                name = _last_name(exc.func if isinstance(exc, ast.Call) else exc)
                if name is not None:
                    facts.raises.append((name, (node.lineno, node.col_offset, qual)))
        elif isinstance(node, ast.Try):
            tries.append((node, qual))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and facts.registry is None:
            targets: list[ast.expr] = (
                node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(node.value, ast.Dict) and any(
                isinstance(t, ast.Name) and t.id == REGISTRY_NAME for t in targets
            ):
                registry: dict[str, Anchor] = {}
                for key in node.value.keys:
                    site = _str_const(key)
                    if key is not None and site is not None:
                        registry[site] = (key.lineno, key.col_offset, qual)
                facts.registry = registry
        stack.extend((child, qual, fn, handlers) for child in children)

    # RL001, with the file's import aliases resolved.
    for dotted, call, qual in calls:
        head, _, rest = dotted.partition(".")
        if head in aliases:
            dotted = aliases[head] + ("." + rest if rest else "")
        if any(_suffix_matches(dotted, p) for p in LISTING_CALLS):
            if id(call) not in sorted_args:
                report("RL001", call, qual, f"{dotted}() order is filesystem-"
                       "dependent; wrap the call directly in sorted(...)")
            continue
        why = next((w for p, w in BANNED_CALLS.items() if _suffix_matches(dotted, p)), None)
        module, _, attr = dotted.rpartition(".")
        if why is not None:
            report("RL001", call, qual, f"{dotted}(): {why}")
        elif module == "random" and attr not in ALLOWED_RANDOM_ATTRS:
            report("RL001", call, qual, f"{dotted}(): module-level random "
                   "shares hidden global state; use a seeded random.Random "
                   "instance")

    for try_node, qual in tries:
        crash_safe = False  # an earlier handler re-raised CrashPointFired
        for handler in try_node.handlers:
            names = _handler_names(handler)
            reraises = id(handler) in reraised
            if CRASH_EXC in names:
                crash_safe = crash_safe or reraises
                if not reraises:
                    report("RL003", handler, qual, "except clause catches "
                           "CrashPointFired without re-raising — injected "
                           "crashes must always propagate to the harness")
            elif (handler.type is None or names & BROAD_NAMES) and not (
                crash_safe or reraises
            ):
                what = "bare except" if handler.type is None else (
                    "except " + "/".join(sorted(names & BROAD_NAMES)))
                report("RL003", handler, qual, f"{what} can swallow "
                       "CrashPointFired — narrow to the concrete exception "
                       "types, or re-raise CrashPointFired in an earlier handler")

    if pkg_path.startswith(CRASH_WINDOW_SCOPES):
        for function in functions:
            if function.reaches:
                continue
            for call in function.commits:
                name = function.qualname.rpartition(".")[2]
                report("RL003", call, function.qualname, f"MANIFEST commit in "
                       f"{name}() with no reach() crash site in the "
                       "function's own body — no crash test can explore the "
                       "window this commit closes (crash-coverage gap)")
    return findings, facts


# Memoised on the text itself, so a process that lints two nearly identical
# trees (the mutation self-tests) re-analyses only the files that differ.
# The result is shared between calls: callers must not mutate it.
@functools.lru_cache(maxsize=1024)
def _analyze(path: str, pkg_path: str, source: str) -> tuple[tuple[Finding, ...], FileFacts]:
    try:
        tree = ast.parse(source, filename=path)
    except (SyntaxError, ValueError) as exc:
        return (_parse_error(path, exc),), FileFacts(path, pkg_path)
    findings, facts = _check_module(tree, path, pkg_path)
    return tuple(findings), facts


def _parse_error(path: str, exc: Exception) -> Finding:
    line = getattr(exc, "lineno", 0) or 0
    col = getattr(exc, "offset", 0) or 0
    return Finding(path, line, col, PARSE_ERROR_RULE, f"could not parse file: {exc}")


def _check_tree(files: list[FileFacts]) -> list[Finding]:
    """RL003's registry agreement and RL004, over every file's facts."""
    findings: list[Finding] = []
    home = next((facts for facts in files if facts.registry is not None), None)
    if home is not None and home.registry is not None:
        registry = home.registry
        reached: set[str] = set()
        for facts in files:
            for name, anchor in facts.reaches.items():
                reached.add(name)
                if name not in registry:
                    findings.append(facts.finding(anchor, "RL003", f"reach({name!r}) "
                                    f"names a crash point missing from {REGISTRY_NAME} "
                                    "— arming and site enumeration cannot see it"))
        for name, anchor in registry.items():
            if name not in reached:
                findings.append(home.finding(anchor, "RL003", f"{REGISTRY_NAME} "
                                f"registers {name!r} but no reach() call site "
                                "exists — no crash test can fire it"))

    bases: dict[str, list[str]] = {}
    for facts in files:
        for name, names in facts.classes.items():
            bases.setdefault(name, names)
    for facts in files:
        for name, anchor in facts.raises:
            if _derives_from_root(name, bases) is False:
                findings.append(facts.finding(anchor, "RL004", f"raise {name}: not "
                                "a ReproError subclass and not whitelisted — callers "
                                "are promised a single catchable ReproError root"))
    return findings


def _derives_from_root(name: str, bases: dict[str, list[str]]) -> bool | None:
    """True/False when the class resolves; ``None`` when it is unknown."""
    seen: set[str] = set()
    pending = [name]
    resolvable = False
    while pending:
        cur = pending.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if cur == ROOT_EXC or cur in RAISE_WHITELIST:
            return True
        if cur in bases:
            resolvable = True
            pending.extend(bases[cur])
        elif cur in BUILTIN_EXCEPTIONS:
            resolvable = True  # a known class, known not to reach the root
    return False if resolvable else None


_HOME = "lint/__init__.py"  # this module, as a package path


def _apply_allowlist(findings: list[Finding], linted: dict[str, str]) -> list[Finding]:
    """Drop the findings ``ALLOWED`` keeps; add RL010 for each bad entry."""
    entries = {(pkg, qual, rule): i for i, (pkg, qual, rule, _) in enumerate(ALLOWED)}
    used: set[int] = set()
    kept: list[Finding] = []
    for finding in findings:
        index = entries.get((finding.pkg_path, finding.qualname, finding.rule))
        if index is None:
            kept.append(finding)
        else:
            used.add(index)
    for index, (pkg, qual, rule, _) in enumerate(ALLOWED):
        if rule not in RULES:
            problem = f"names unknown rule {rule} (stale or misspelled?)"
        elif index not in used and pkg in linted and _HOME in linted:
            problem = "matches no finding (stale?)"
        else:
            continue
        kept.append(Finding(linted.get(pkg, pkg), 0, 0, "RL010", f"ALLOWED "
                            f"entry ({pkg}, {qual}, {rule}) {problem} — fix "
                            "or delete it", pkg, qual))
    return kept


def _files(paths: list[Path]) -> list[tuple[Path, Path]]:
    """Expand files and directories into sorted, de-duplicated (file, root)."""
    seen: set[Path] = set()
    out: list[tuple[Path, Path]] = []
    for raw in paths:
        root = raw.resolve()
        candidates, base = ([root], root.parent) if root.is_file() else (
            sorted(root.rglob("*.py")), root)
        for file in candidates:
            if file not in seen and "__pycache__" not in file.parts:
                seen.add(file)
                out.append((file, base))
    return out


def _pkg_path(file: Path, rel: str) -> str:
    """The path below the innermost ``repro`` directory, else ``rel``."""
    parts = file.parts
    for idx in range(len(parts) - 1, -1, -1):
        if parts[idx] == "repro":
            return "/".join(parts[idx + 1:])
    return rel


def lint_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint files and directories; the sorted findings ``ALLOWED`` leaves."""
    findings: list[Finding] = []
    files: list[FileFacts] = []
    linted: dict[str, str] = {}
    for file, root in _files([Path(p) for p in paths]):
        rel = file.relative_to(root).as_posix()
        pkg = _pkg_path(file, rel)
        linted[pkg] = rel
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(_parse_error(rel, exc))
            continue
        file_findings, facts = _analyze(rel, pkg, source)
        findings.extend(file_findings)
        files.append(facts)
    findings += _check_tree(files)
    return sorted(_apply_allowlist(findings, linted))
