"""The tree holds no retired name, and each entry of ``RETIRED`` reports one
of its names put back: appended to a copy of a file scope, or as a new file
in a directory scope (the tree case already walks its real files)."""

from pathlib import Path

import pytest

from benchmarks.retired import QUALNAME, RETIRED, check
from benchmarks.traffic import REPO_ROOT


def test_the_tree_holds_no_retired_name():
    assert [scope for entry in RETIRED for scope in entry.scope if not (REPO_ROOT / scope).exists()] == []
    assert check(REPO_ROOT) == []


def put_back(root, rel, witness):
    """Append ``witness`` to ``rel`` under ``root`` (a copy of the tree's
    file, or a new one); return its last line as ``path:line``."""
    path = root / rel
    source = path if path.exists() else REPO_ROOT / rel
    text = source.read_text(encoding="utf-8") if source.is_file() else ""
    text += f"\n{witness}\n" if text else f"{witness}\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return f"{Path(rel)}:{text.count(chr(10))}"


def definition(qualname):
    """Python defining ``Class.method`` (or a function), its ``def`` last."""
    *classes, last = qualname.split(".")
    return "".join(f"{'    ' * depth}class {name}:\n" for depth, name in enumerate(classes)) + f"{'    ' * len(classes)}def {last}(): pass"


@pytest.mark.parametrize("entry", RETIRED, ids=lambda entry: entry.id)
def test_a_name_put_back_is_reported_with_its_place_and_reason(entry, tmp_path, monkeypatch):
    monkeypatch.setattr("benchmarks.retired.RETIRED", (entry,))
    expected = set()
    for scope in entry.scope:
        if entry.kind == QUALNAME:
            for name in entry.names:
                dotted, _, qualname = name.partition(":")
                module = Path(scope, *dotted.split(".")[1:]).with_suffix(".py")
                expected.add(put_back(tmp_path, module, definition(qualname) if qualname else ""))
        else:
            rel = scope if (REPO_ROOT / scope).is_file() else f"{scope}/retired_witness.py"
            expected.add(put_back(tmp_path, rel, entry.witness))
            for name in entry.exclude:
                put_back(tmp_path, f"{scope}/{name}", entry.witness)
    problems = check(tmp_path)
    assert all(problem.endswith(f"is retired ({entry.id}): {entry.reason}") for problem in problems)
    assert {problem.split(": ", 1)[0] for problem in problems} == expected
