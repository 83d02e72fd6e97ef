"""Engine tests: suppression edge cases and the per-file memo."""

from pathlib import Path

from repro.lint import lint_paths
from repro.lint.suppress import parse_suppressions


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


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


class TestPerFileMemo:
    def test_same_path_with_new_text_is_reanalysed(self, tmp_path):
        # The memo is keyed on the text, not the path: rewriting a file in
        # place must never serve the previous answer.
        root = make_tree(tmp_path, {"bench/x.py": "import time\nt = time.time()\n"})
        assert [f.rule for f in lint_paths([root])] == ["RL001"]
        (root / "bench" / "x.py").write_text("t = 0\n", encoding="utf-8")
        assert lint_paths([root]) == []
