"""The traffic census's static half: what counts as a line, what is exempt,
which region a line belongs to, and the verdict table's own rules.

The traced half (``python -m benchmarks.traffic --check``) runs the examples,
the perf workloads and every experiment, so it lives in CI's long job.
"""

from benchmarks.traffic import OPEN, SAFETY, SURFACE, VERDICTS, Census, scan_module

SOURCE = '''\
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from os import PathLike

LIMIT = 3


def check(n):
    """Docstrings are not code."""
    if n > LIMIT:
        raise ValueError(
            "too big"
        )
    assert n >= 0
    try:
        value = 10 // n
    except ZeroDivisionError:
        value = 0
    return value


class Box:
    size = 1

    def grow(self):
        def helper():
            return 2

        self.size += helper()
'''


def scanned(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    return scan_module("repro.sample", path)


def line_of(text):
    return SOURCE.splitlines().index(text) + 1


def test_lines_are_statements_with_code(tmp_path):
    module = scanned(tmp_path)
    assert line_of("    try:") not in module.regions
    assert line_of('    """Docstrings are not code."""') not in module.regions
    assert line_of('            "too big"') not in module.regions  # inside the raise's statement
    assert line_of("        raise ValueError(") in module.regions
    assert module.headers[line_of("        raise ValueError(")] == tuple(
        range(line_of("        raise ValueError("), line_of("        )") + 1)
    )


def test_error_paths_are_exempt(tmp_path):
    module = scanned(tmp_path)
    exempt = {line_of(text) for text in (
        "    from os import PathLike",
        "        raise ValueError(",
        "    assert n >= 0",
        "        value = 0",
    )}  # fmt: skip
    assert exempt == module.exempt


def test_regions_are_functions_and_nested_functions_fold_in(tmp_path):
    module = scanned(tmp_path)
    assert module.regions[line_of("LIMIT = 3")] == "repro.sample:<module>"
    assert module.regions[line_of("    return value")] == "repro.sample:check"
    assert module.regions[line_of("    size = 1")] == "repro.sample:Box"
    assert module.regions[line_of("            return 2")] == "repro.sample:Box.grow"
    lines = {"repro.sample:check": "def check(n):", "repro.sample:Box": "class Box:", "repro.sample:Box.grow": "    def grow(self):"}
    assert module.qualnames == {qualname: line_of(text) for qualname, text in lines.items()}


def test_a_verdict_covers_its_own_region_only(monkeypatch):
    table = {
        "repro.a:C": (SURFACE, "operator API"),
        "repro.a:f": (OPEN, "item 20: next deletion"),
    }
    monkeypatch.setattr("benchmarks.traffic.VERDICTS", table)
    census = Census(regions={"repro.a:C.method": [1, 0], "repro.a:f": [0, 2]})
    assert census.problems() == [
        "repro.a:C.method: no verdict",
        "repro.a:C: verdict for a region with traffic, or one that is gone",
    ]


def test_every_verdict_is_well_formed():
    for key, (verdict, reason) in VERDICTS.items():
        assert verdict in (SAFETY, SURFACE, OPEN), key
        assert reason, key
        if verdict == OPEN:
            assert "item" in reason, f"{key}: an open verdict names its ROADMAP item"
