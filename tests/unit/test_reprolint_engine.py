"""Two-phase engine tests: summary cache, parallel jobs, SARIF output,
and suppression edge cases."""

import json
from pathlib import Path

from repro.lint import LintConfig, lint_paths
from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, main
from repro.lint.engine import LintEngine
from repro.lint.finding import Finding
from repro.lint.report import render_sarif
from repro.lint.suppress import parse_suppressions

CLEAN_SRC = "def f(clock):\n    clock.advance(1.0)\n"
DIRTY_SRC = "import time\nt = time.time()\n"


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


class TestSummaryCache:
    def test_warm_run_reanalyzes_only_changed_files(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "bench/a.py": CLEAN_SRC,
                "bench/b.py": DIRTY_SRC,
                "bench/c.py": CLEAN_SRC.replace("f(", "g("),
            },
        )
        cache = tmp_path / "cache"
        engine = LintEngine(cache_dir=cache)
        cold = engine.run([root])
        assert engine.stats == {"files": 3, "cache_hits": 0, "cache_misses": 3}

        warm = engine.run([root])
        assert engine.stats == {"files": 3, "cache_hits": 3, "cache_misses": 0}
        assert [f.to_dict() for f in warm] == [f.to_dict() for f in cold]

        (root / "bench" / "a.py").write_text(DIRTY_SRC, encoding="utf-8")
        third = engine.run([root])
        assert engine.stats == {"files": 3, "cache_hits": 2, "cache_misses": 1}
        assert sorted(f.path for f in third) == ["bench/a.py", "bench/b.py"]

    def test_cached_findings_keep_suppressions(self, tmp_path):
        suppressed = "import time\nt = time.time()  # reprolint: ignore[RL001]\n"
        root = make_tree(tmp_path, {"bench/a.py": suppressed})
        cache = tmp_path / "cache"
        engine = LintEngine(cache_dir=cache)
        assert engine.run([root]) == []
        assert engine.run([root]) == []  # warm: suppression map from facts
        assert engine.stats["cache_hits"] == 1

    def test_config_change_invalidates_cache(self, tmp_path):
        root = make_tree(tmp_path, {"bench/a.py": CLEAN_SRC})
        cache = tmp_path / "cache"
        LintEngine(cache_dir=cache).run([root])
        engine = LintEngine(
            LintConfig(charge_window_after=7), cache_dir=cache
        )
        engine.run([root])
        assert engine.stats["cache_misses"] == 1

    def test_corrupt_cache_entry_is_reanalyzed(self, tmp_path):
        root = make_tree(tmp_path, {"bench/a.py": DIRTY_SRC})
        cache = tmp_path / "cache"
        engine = LintEngine(cache_dir=cache)
        cold = engine.run([root])
        for entry in cache.iterdir():
            entry.write_text("{not json", encoding="utf-8")
        again = engine.run([root])
        assert engine.stats["cache_misses"] == 1
        assert [f.to_dict() for f in again] == [f.to_dict() for f in cold]

    def test_parallel_jobs_match_serial(self, tmp_path):
        files = {f"bench/m{i}.py": DIRTY_SRC for i in range(4)}
        files["bench/ok.py"] = CLEAN_SRC
        root = make_tree(tmp_path, files)
        serial = LintEngine().run([root])
        parallel = LintEngine(jobs=2).run([root])
        assert [f.to_dict() for f in parallel] == [f.to_dict() for f in serial]


class TestSarif:
    FINDING = Finding(rule="RL005", path="lsm/x.py", line=3, col=2,
                      message="import os: banned", snippet="import os",
                      end_line=4)

    def test_document_shape(self):
        doc = json.loads(render_sarif([self.FINDING]))
        assert doc["version"] == "2.1.0"
        assert "sarif-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "RL001" in rule_ids and "RL010" in rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "RL005"
        assert result["level"] == "error"
        assert result["message"]["text"] == "import os: banned"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "lsm/x.py"
        assert location["region"]["startLine"] == 3
        assert location["region"]["startColumn"] == 3
        assert location["region"]["endLine"] == 4
        assert result["partialFingerprints"] == {
            "reprolintFingerprint/v2": self.FINDING.fingerprint
        }

    def test_clean_run_has_empty_results(self):
        doc = json.loads(render_sarif([]))
        assert doc["runs"][0]["results"] == []

    def test_cli_writes_sarif_to_output_file(self, tmp_path):
        root = make_tree(tmp_path, {"bench/x.py": DIRTY_SRC})
        out = tmp_path / "lint.sarif"
        code = main(
            [str(root), "--no-cache", "--format", "sarif", "--output", str(out)]
        )
        assert code == EXIT_FINDINGS
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [r["ruleId"] for r in doc["runs"][0]["results"]] == ["RL001"]


class TestSuppressionEdgeCases:
    def test_comment_suppression_propagates_past_decorators(self):
        lines = [
            "# reprolint: ignore[RL004] -- reason",
            "@functools.wraps(f)",
            "@some.other(deco)",
            "def g():",
            "    pass",
        ]
        suppressions = parse_suppressions(lines)
        # The comment covers itself, each decorator line, and the def.
        assert {1, 2, 3, 4} <= set(suppressions)
        assert all(suppressions[n] == frozenset({"RL004"}) for n in (1, 2, 3, 4))
        assert 5 not in suppressions

    def test_multiline_call_suppressed_by_trailing_comment(self, tmp_path):
        # The finding anchors on the call's first line, but the suppression
        # sits on its last line: the [line, end_line] span must match.
        source = (
            "import time\n"
            "t = time.time(\n"
            ")  # reprolint: ignore[RL001] -- wrapped call\n"
        )
        root = make_tree(tmp_path, {"bench/x.py": source})
        assert lint_paths([root]) == []

    def test_unknown_rule_in_suppression_warns_rl010(self, tmp_path):
        source = "x = 1  # reprolint: ignore[RL099]\n"
        root = make_tree(tmp_path, {"bench/x.py": source})
        findings = lint_paths([root])
        assert [f.rule for f in findings] == ["RL010"]
        assert "RL099" in findings[0].message

    def test_known_rule_suppression_does_not_warn(self, tmp_path):
        source = "import time\nt = time.time()  # reprolint: ignore[RL001]\n"
        root = make_tree(tmp_path, {"bench/x.py": source})
        assert lint_paths([root]) == []

    def test_bare_ignore_names_no_rules_and_never_warns(self, tmp_path):
        source = "import time\nt = time.time()  # reprolint: ignore\n"
        root = make_tree(tmp_path, {"bench/x.py": source})
        assert lint_paths([root]) == []

    def test_rl000_is_a_known_suppression_target(self, tmp_path):
        source = "x = 1  # reprolint: ignore[RL000]\n"
        root = make_tree(tmp_path, {"bench/x.py": source})
        assert lint_paths([root]) == []


class TestStatsFlag:
    def test_stats_go_to_stderr(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"bench/x.py": CLEAN_SRC})
        code = main([str(root), "--no-cache", "--stats"])
        assert code == EXIT_CLEAN
        err = capsys.readouterr().err
        assert "1 file(s)" in err and "1 analyzed" in err
