"""Command-line tests for ``python -m repro.lint``: exit codes and the
compiler-style text it prints."""

from pathlib import Path

from repro.lint.__main__ import main


CLEAN_SRC = "def f(clock):\n    clock.advance(1.0)\n"
DIRTY_SRC = "import time\nt = time.time()\n"


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write ``files`` (pkg-relative path → source) under tmp_path/repro."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"bench/x.py": CLEAN_SRC})
        assert main([str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"bench/x.py": DIRTY_SRC})
        assert main([str(root)]) == 1
        out = capsys.readouterr().out
        assert "RL001" in out and "bench/x.py:2" in out

    def test_no_path_lints_src(self, tmp_path, monkeypatch, capsys):
        make_tree(tmp_path / "src", {"bench/x.py": DIRTY_SRC})
        monkeypatch.chdir(tmp_path)
        assert main([]) == 1
        assert "bench/x.py:2:4: RL001" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err


class TestReporters:
    def test_text_report_is_compiler_style(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"lsm/x.py": "import os\n", "bench/y.py": DIRTY_SRC})
        assert main([str(root)]) == 1
        lines = capsys.readouterr().out.splitlines()
        # path:line:col: RULE message, one line per finding in sorted order,
        # then a blank line and the per-rule counts.
        assert lines[0].startswith("bench/y.py:2:4: RL001 time.time(): wall-clock read")
        assert lines[1].startswith("lsm/x.py:1:0: RL005 import os")
        assert lines[2:] == ["", "2 finding(s) (RL001: 1, RL005: 1)"]

    def test_text_report_clean(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"bench/x.py": CLEAN_SRC, "lsm/y.py": "x = 1\n"})
        assert main([str(root)]) == 0
        out, err = capsys.readouterr()
        assert out == "reprolint: clean\n" and err == ""
