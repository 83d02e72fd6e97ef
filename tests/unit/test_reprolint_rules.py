"""Fixture tests for reprolint: each rule (RL001, RL003–RL005), the allowlist,
parse errors and the per-file memo (the command line is in
``test_reprolint_cli.py``).

Each rule gets at least one violating snippet and one clean snippet. The
fixtures are miniature trees under ``tmp_path/repro/…`` — the driver keys
rule scopes on the path below the innermost ``repro`` directory, so these
behave exactly like files in the real package.
"""

from pathlib import Path

import pytest

import repro.lint
from repro.lint import PARSE_ERROR_RULE, RULES, lint_paths


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write ``files`` (pkg-relative path → source) under tmp_path/repro."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def rule_ids(tmp_path: Path, files: dict[str, str]) -> list[str]:
    return [f.rule for f in lint_paths([make_tree(tmp_path, files)])]


# -- RL001: determinism -----------------------------------------------------


class TestDeterminism:
    def test_wall_clock_flagged(self, tmp_path):
        ids = rule_ids(tmp_path, {"bench/x.py": "import time\nt = time.time()\n"})
        assert ids == ["RL001"]

    def test_perf_counter_and_sleep_flagged(self, tmp_path):
        src = "import time\na = time.perf_counter()\ntime.sleep(1)\n"
        assert rule_ids(tmp_path, {"bench/x.py": src}) == ["RL001", "RL001"]

    def test_datetime_now_flagged(self, tmp_path):
        src = "import datetime\nd = datetime.datetime.now()\n"
        assert rule_ids(tmp_path, {"bench/x.py": src}) == ["RL001"]

    def test_module_level_random_flagged(self, tmp_path):
        src = "import random\nr = random.random()\n"
        assert rule_ids(tmp_path, {"bench/x.py": src}) == ["RL001"]

    def test_seeded_random_instance_clean(self, tmp_path):
        src = "import random\nrng = random.Random(0)\nr = rng.random()\n"
        assert rule_ids(tmp_path, {"bench/x.py": src}) == []

    def test_os_urandom_flagged(self, tmp_path):
        src = "import os\nb = os.urandom(8)\n"
        assert rule_ids(tmp_path, {"bench/x.py": src}) == ["RL001"]

    def test_unsorted_listdir_flagged(self, tmp_path):
        src = "import os\nnames = os.listdir('d')\n"
        assert rule_ids(tmp_path, {"bench/x.py": src}) == ["RL001"]

    def test_sorted_listdir_clean(self, tmp_path):
        src = "import os\nnames = sorted(os.listdir('d'))\n"
        assert rule_ids(tmp_path, {"bench/x.py": src}) == []

    def test_simclock_advance_clean(self, tmp_path):
        src = "def run(clock):\n    clock.advance(1.0)\n"
        assert rule_ids(tmp_path, {"bench/x.py": src}) == []

    @pytest.mark.parametrize(
        "src",
        [
            "from time import perf_counter\nperf_counter()\n",
            "import time as t\nt.time()\n",
            "from random import random\nrandom()\n",
            "import random as rnd\nrnd.random()\n",
            "from os import listdir\nlistdir('d')\n",
            "from os import urandom as entropy\nentropy(8)\n",
            "def f():\n    return clock()\nfrom time import monotonic as clock\n",
        ],
    )
    def test_aliased_import_flagged(self, tmp_path, src):
        assert rule_ids(tmp_path, {"bench/x.py": src}) == ["RL001"]

    def test_aliased_seeded_random_and_sorted_listing_clean(self, tmp_path):
        src = (
            "import random as _random\nrng = _random.Random(13)\n"
            "from os import listdir\nnames = sorted(listdir('d'))\n"
        )
        assert rule_ids(tmp_path, {"bench/x.py": src}) == []


# -- RL003: crash-point hygiene ---------------------------------------------


class TestCrashPointHandlers:
    def test_broad_except_flagged(self, tmp_path):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert rule_ids(tmp_path, {"mash/x.py": src}) == ["RL003"]

    def test_bare_except_flagged(self, tmp_path):
        src = "try:\n    f()\nexcept:\n    pass\n"
        assert rule_ids(tmp_path, {"mash/x.py": src}) == ["RL003"]

    def test_broad_except_with_reraise_clean(self, tmp_path):
        src = "try:\n    f()\nexcept Exception:\n    log()\n    raise\n"
        assert rule_ids(tmp_path, {"mash/x.py": src}) == []

    def test_narrow_except_clean(self, tmp_path):
        src = "try:\n    f()\nexcept (ValueError, KeyError):\n    pass\n"
        assert rule_ids(tmp_path, {"mash/x.py": src}) == []

    def test_swallowed_crashpointfired_flagged(self, tmp_path):
        src = (
            "from repro.sim.failure import CrashPointFired\n"
            "try:\n    f()\nexcept CrashPointFired:\n    pass\n"
        )
        assert rule_ids(tmp_path, {"mash/x.py": src}) == ["RL003"]

    def test_earlier_crash_reraise_excuses_broad_handler(self, tmp_path):
        src = (
            "from repro.sim.failure import CrashPointFired\n"
            "try:\n"
            "    f()\n"
            "except CrashPointFired:\n"
            "    raise\n"
            "except Exception:\n"
            "    pass\n"
        )
        assert rule_ids(tmp_path, {"mash/x.py": src}) == []

    def test_nested_function_raise_does_not_count(self, tmp_path):
        # The bare raise lives in a nested def: it runs later, if ever.
        src = (
            "try:\n"
            "    f()\n"
            "except Exception:\n"
            "    def later():\n"
            "        raise\n"
        )
        assert rule_ids(tmp_path, {"mash/x.py": src}) == ["RL003"]


class TestCrashPointRegistry:
    REGISTRY = 'CRASH_SITES = {"flush.a": "desc"}\n'

    def test_consistent_registry_clean(self, tmp_path):
        files = {
            "sim/failure.py": self.REGISTRY,
            "lsm/db.py": 'def flush(cp):\n    cp.reach("flush.a")\n',
        }
        assert rule_ids(tmp_path, files) == []

    def test_unregistered_reach_flagged(self, tmp_path):
        files = {
            "sim/failure.py": self.REGISTRY,
            "lsm/db.py": (
                'def flush(cp):\n'
                '    cp.reach("flush.a")\n'
                '    cp.reach("flush.unknown")\n'
            ),
        }
        findings = lint_paths([make_tree(tmp_path, files)])
        assert [f.rule for f in findings] == ["RL003"]
        assert "flush.unknown" in findings[0].message

    def test_unreached_site_flagged(self, tmp_path):
        files = {
            "sim/failure.py": 'CRASH_SITES = {"flush.a": "d", "flush.b": "d"}\n',
            "lsm/db.py": 'def flush(cp):\n    cp.reach("flush.a")\n',
        }
        findings = lint_paths([make_tree(tmp_path, files)])
        assert [f.rule for f in findings] == ["RL003"]
        assert "flush.b" in findings[0].message

    def test_no_registry_in_tree_skips_check(self, tmp_path):
        # Linting a subtree without sim/failure.py must not flag reaches.
        files = {"lsm/db.py": 'def flush(cp):\n    cp.reach("flush.a")\n'}
        assert rule_ids(tmp_path, files) == []


class TestCommitBracket:
    """RL003's lexical half of the retired RL008: a function that commits
    a MANIFEST edit names a crash site in its own body."""

    UNBRACKETED = (
        "def install(self, edit):\n"
        "    self.versions.log_and_apply(edit)\n"
    )

    def test_commit_without_reach_flagged(self, tmp_path):
        findings = lint_paths([make_tree(tmp_path, {"lsm/db.py": self.UNBRACKETED})])
        assert [(f.rule, f.line) for f in findings] == [("RL003", 2)]
        assert "install()" in findings[0].message
        assert "crash-coverage gap" in findings[0].message

    def test_commit_with_reach_in_same_function_clean(self, tmp_path):
        # Where the site sits is not judged (run_gc reaches *after* its
        # commit): the store machine fires it and checks what recovery finds.
        src = (
            "def install(self, edit, cp):\n"
            "    self.versions.log_and_apply(edit)\n"
            '    cp.reach("gc.after_commit")\n'
        )
        assert rule_ids(tmp_path, {"mash/gc.py": src}) == []

    def test_reach_in_another_function_does_not_count(self, tmp_path):
        src = (
            "def prepare(cp):\n"
            '    cp.reach("install.before")\n'
            + self.UNBRACKETED
        )
        assert rule_ids(tmp_path, {"mash/x.py": src}) == ["RL003"]

    def test_nested_function_is_judged_on_its_own(self, tmp_path):
        src = (
            "def outer(self, cp):\n"
            '    cp.reach("outer.site")\n'
            "    def commit(edit):\n"
            "        self.versions.log_and_apply(edit)\n"
            "    return commit\n"
        )
        findings = lint_paths([make_tree(tmp_path, {"lsm/x.py": src})])
        assert [(f.rule, f.line) for f in findings] == [("RL003", 4)]
        assert "commit()" in findings[0].message

    def test_out_of_scope_commit_ignored(self, tmp_path):
        # bench/ and serve/ drive stores; they own no MANIFEST protocol.
        assert rule_ids(tmp_path, {"bench/x.py": self.UNBRACKETED}) == []

    def test_suppressed_commit_clean(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            repro.lint, "ALLOWED", (("lsm/db.py", "create", "RL003", "brand"),)
        )
        src = "def create(db, edit):\n    db.versions.log_and_apply(edit)\n"
        assert rule_ids(tmp_path, {"lsm/db.py": src}) == []


# -- RL004: error taxonomy ---------------------------------------------------


class TestErrorTaxonomy:
    def test_runtime_error_flagged(self, tmp_path):
        src = "def f():\n    raise RuntimeError('boom')\n"
        assert rule_ids(tmp_path, {"lsm/x.py": src}) == ["RL004"]

    def test_oserror_flagged(self, tmp_path):
        src = "def f():\n    raise OSError('boom')\n"
        assert rule_ids(tmp_path, {"lsm/x.py": src}) == ["RL004"]

    def test_whitelisted_builtin_clean(self, tmp_path):
        src = "def f():\n    raise ValueError('bad arg')\n"
        assert rule_ids(tmp_path, {"lsm/x.py": src}) == []

    def test_repro_error_subclass_clean(self, tmp_path):
        src = (
            "class ReproError(Exception):\n    pass\n"
            "class MyError(ReproError):\n    pass\n"
            "def f():\n    raise MyError('x')\n"
        )
        assert rule_ids(tmp_path, {"lsm/x.py": src}) == []

    def test_cross_file_subclass_resolution(self, tmp_path):
        files = {
            "errors.py": (
                "class ReproError(Exception):\n    pass\n"
                "class CacheError(ReproError):\n    pass\n"
            ),
            "mash/cache.py": (
                "from repro.errors import CacheError\n"
                "def f():\n    raise CacheError('x')\n"
            ),
        }
        assert rule_ids(tmp_path, files) == []

    def test_non_repro_local_class_flagged(self, tmp_path):
        src = (
            "class Oops(RuntimeError):\n    pass\n"
            "def f():\n    raise Oops('x')\n"
        )
        assert rule_ids(tmp_path, {"lsm/x.py": src}) == ["RL004"]

    def test_reraised_variable_ignored(self, tmp_path):
        # `raise exc` re-raises a captured variable: unresolvable, skipped.
        src = "def f(exc):\n    raise exc\n"
        assert rule_ids(tmp_path, {"lsm/x.py": src}) == []

    def test_crash_point_fired_whitelisted(self, tmp_path):
        src = (
            "from repro.sim.failure import CrashPointFired\n"
            "def f():\n    raise CrashPointFired('site')\n"
        )
        assert rule_ids(tmp_path, {"sim/x.py": src}) == []


# -- RL005: no real I/O ------------------------------------------------------


class TestRealIO:
    @pytest.mark.parametrize("mod", ["os", "pathlib", "socket", "threading"])
    def test_banned_import_flagged(self, tmp_path, mod):
        assert rule_ids(tmp_path, {"lsm/x.py": f"import {mod}\n"}) == ["RL005"]

    def test_from_import_flagged(self, tmp_path):
        src = "from pathlib import Path\n"
        assert rule_ids(tmp_path, {"storage/x.py": src}) == ["RL005"]

    def test_open_builtin_flagged(self, tmp_path):
        src = "def f(p):\n    with open(p) as fh:\n        return fh.read()\n"
        assert rule_ids(tmp_path, {"sim/x.py": src}) == ["RL005"]

    def test_method_named_open_clean(self, tmp_path):
        src = "def f(store):\n    return store.open('x')\n"
        assert rule_ids(tmp_path, {"sim/x.py": src}) == []

    def test_outside_sim_scope_clean(self, tmp_path):
        assert rule_ids(tmp_path, {"bench/x.py": "import os\n"}) == []


# -- the allowlist, parse errors and ordering --------------------------------


WALL_CLOCKS = "import time\ndef a():\n    time.time()\ndef b():\n    time.time()\n"


class TestAllowlist:
    """An ``ALLOWED`` entry keeps every finding of its rule in its function."""

    def allow(self, monkeypatch, *entries):
        monkeypatch.setattr(repro.lint, "ALLOWED", entries)

    def test_entry_keeps_only_its_function(self, tmp_path, monkeypatch):
        self.allow(monkeypatch, ("bench/x.py", "a", "RL001", "why"))
        findings = lint_paths([make_tree(tmp_path, {"bench/x.py": WALL_CLOCKS})])
        assert [(f.rule, f.line, f.qualname) for f in findings] == [("RL001", 5, "b")]

    def test_entry_for_another_rule_keeps_the_finding(self, tmp_path, monkeypatch):
        self.allow(
            monkeypatch,
            ("bench/x.py", "a", "RL005", "why"),
            ("bench/x.py", "b", "RL001", "why"),
        )
        assert rule_ids(tmp_path, {"bench/x.py": WALL_CLOCKS}) == ["RL001"]

    def test_stale_entry_is_judged_with_the_linter_in_the_tree(
        self, tmp_path, monkeypatch
    ):
        # An unmatched entry fails only when the run linted both its file and
        # the module that holds ALLOWED: fixtures and subtrees are not judged.
        self.allow(monkeypatch, ("bench/x.py", "a", "RL005", "why"))
        files = {"bench/x.py": "x = 1\n", "lint/__init__.py": ""}
        findings = lint_paths([make_tree(tmp_path, files)])
        assert [(f.rule, f.path) for f in findings] == [("RL010", "bench/x.py")]
        assert "matches no finding" in findings[0].message
        assert lint_paths([tmp_path / "repro" / "bench"]) == []

    def test_method_qualname_includes_its_class(self, tmp_path, monkeypatch):
        self.allow(monkeypatch, ("bench/x.py", "C.m", "RL001", "why"))
        src = "import time\nclass C:\n    def m(self):\n        time.sleep(1)\n"
        assert rule_ids(tmp_path, {"bench/x.py": src}) == []


class TestParseErrors:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = lint_paths([make_tree(tmp_path, {"bench/x.py": "def broken(:\n"})])
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]


class TestRuleSelection:
    def test_rule_ids_skip_the_retired_ones(self):
        # RL002 and RL006–RL009 were retired (DESIGN.md §7); ids are not
        # renumbered.
        assert sorted(RULES) == ["RL001", "RL003", "RL004", "RL005", "RL010"]

    def test_findings_are_deterministically_ordered(self, tmp_path):
        files = {
            "lsm/a.py": "import os\nimport socket\n",
            "lsm/b.py": "import os\n",
        }
        root = make_tree(tmp_path, files)
        first = [(f.path, f.line, f.rule) for f in lint_paths([root])]
        second = [(f.path, f.line, f.rule) for f in lint_paths([root])]
        assert first == second
        assert first == sorted(first)


class TestPerFileMemo:
    def test_same_path_with_new_text_is_reanalysed(self, tmp_path):
        # The memo is keyed on the text, not the path: rewriting a file in
        # place must never serve the previous answer.
        root = make_tree(tmp_path, {"bench/x.py": "import time\nt = time.time()\n"})
        assert [f.rule for f in lint_paths([root])] == ["RL001"]
        (root / "bench" / "x.py").write_text("t = 0\n", encoding="utf-8")
        assert lint_paths([root]) == []
