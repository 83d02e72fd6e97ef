"""CLI and reporter tests for ``python -m repro.lint``."""

import json
from pathlib import Path

import pytest

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main
from repro.lint.finding import Finding
from repro.lint.report import render_json, render_text


CLEAN_SRC = "def f(clock):\n    clock.advance(1.0)\n"
DIRTY_SRC = "import time\nt = time.time()\n"


@pytest.fixture
def tree(tmp_path):
    def build(files):
        root = tmp_path / "repro"
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        return root

    return build


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree, capsys):
        root = tree({"bench/x.py": CLEAN_SRC})
        assert main([str(root)]) == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tree, capsys):
        root = tree({"bench/x.py": DIRTY_SRC})
        assert main([str(root)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RL001" in out and "bench/x.py:2" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == EXIT_USAGE
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tree, capsys):
        root = tree({"bench/x.py": CLEAN_SRC})
        assert main([str(root), "--rules", "RL999"]) == EXIT_USAGE
        assert "unknown rule" in capsys.readouterr().err

    def test_rules_filter_applies(self, tree):
        root = tree({"bench/x.py": DIRTY_SRC})
        assert main([str(root), "--rules", "RL005"]) == EXIT_CLEAN
        assert main([str(root), "--rules", "RL001"]) == EXIT_FINDINGS

    def test_list_rules_catalogs_every_rule(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        ids = [line.split()[0] for line in out.splitlines() if line.startswith("RL")]
        # RL006–RL009 were retired (DESIGN.md §7); ids are not renumbered.
        assert ids == ["RL001", "RL002", "RL003", "RL004", "RL005", "RL010"]


class TestJsonFormat:
    def test_json_output_is_machine_readable(self, tree, capsys):
        root = tree({"bench/x.py": DIRTY_SRC})
        assert main([str(root), "--format", "json"]) == EXIT_FINDINGS
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is False
        assert doc["counts"] == {"RL001": 1}
        (finding,) = doc["findings"]
        assert finding["rule"] == "RL001"
        assert finding["path"].endswith("bench/x.py")
        assert finding["line"] == 2

    def test_json_clean(self, tree, capsys):
        root = tree({"bench/x.py": CLEAN_SRC})
        assert main([str(root), "--format", "json"]) == EXIT_CLEAN
        doc = json.loads(capsys.readouterr().out)
        assert doc["clean"] is True and doc["findings"] == []


class TestReporters:
    FINDING = Finding(rule="RL005", path="lsm/x.py", line=1, col=0,
                      message="import os: banned", snippet="import os")

    def test_text_report_is_compiler_style(self):
        text = render_text([self.FINDING])
        assert "lsm/x.py:1:0: RL005 import os: banned" in text

    def test_text_report_clean(self):
        assert "clean" in render_text([])

    def test_json_report_counts(self):
        doc = json.loads(render_json([self.FINDING, self.FINDING]))
        assert doc["counts"] == {"RL005": 2}
