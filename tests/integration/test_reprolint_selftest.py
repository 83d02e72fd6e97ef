"""reprolint self-tests against the real tree.

Three parts:

* the shipped tree is clean — ``python -m repro.lint src`` would exit 0;
* **static mutation self-tests** — seeding one violation per rule into a
  copy of the real package makes the linter fail. This is the guard's
  guard: a refactor that quietly breaks a rule's detection (or its
  scoping) fails here, not months later when the invariant silently rots;
* **retired-rule mutations** — the defects RL006, RL007 and RL009 used to
  catch statically (plus the two escapes their audit found) are seeded the
  same way, and the *dynamic* test that now owns each invariant must fail
  on the mutated copy. The guard moved; its guard moved with it.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def findings_for(root: Path) -> list:
    return lint_paths([root])


class TestRealTree:
    def test_shipped_tree_is_clean(self):
        findings = findings_for(SRC)
        locations = [f"{f.location()} {f.rule} {f.message}" for f in findings]
        assert findings == [], "\n".join(locations)


@pytest.fixture
def tree_copy(tmp_path):
    """A scratch copy of src/repro the mutation tests can deface.

    The copy is byte-identical to the tree ``TestRealTree`` proves clean,
    and the engine memoises per-file analysis on the text, so a test pays
    for parsing only the file it mutates.
    """
    dst = tmp_path / "repro"
    shutil.copytree(
        SRC / "repro", dst, ignore=shutil.ignore_patterns("__pycache__")
    )
    return dst


def mutate(path: Path, old: str, new: str) -> None:
    source = path.read_text(encoding="utf-8")
    assert old in source, f"mutation anchor missing from {path.name}: {old!r}"
    path.write_text(source.replace(old, new), encoding="utf-8")


class TestMutationSelfTests:
    """Each seeded violation must be caught by exactly the right rule."""

    def test_deleting_local_sync_tier_charge_fails_rl002(self, tree_copy):
        # Drop the tracer mirror from ``LocalDevice``'s sync path, the one
        # place a local sync is charged, and the charge-attribution gate
        # must fail on that file.
        mutate(
            tree_copy / "storage" / "local.py",
            "        cost = self.model.write_cost(nbytes)\n"
            "        self.clock.advance(cost)\n"
            "        if self.tracer is not None:\n"
            '            self.tracer.charge("local", cost)\n',
            "        cost = self.model.write_cost(nbytes)\n"
            "        self.clock.advance(cost)\n",
        )
        findings = findings_for(tree_copy.parent)
        assert [(f.rule, f.path.endswith("storage/local.py")) for f in findings] == [
            ("RL002", True)
        ]

    def test_deleting_blob_read_tier_charge_fails_rl002(self, tree_copy):
        # Blob pointer resolution decodes off-LSM bytes on the CPU tier;
        # dropping its tracer mirror must trip the same gate.
        mutate(
            tree_copy / "mash" / "bloblog.py",
            "        cost = _DECODE_BASE_COST + _DECODE_COST_PER_BYTE * len(raw)\n"
            "        self.device.clock.advance(cost)\n"
            "        if tracer is not None:\n"
            '            tracer.charge("cpu", cost)\n',
            "        cost = _DECODE_BASE_COST + _DECODE_COST_PER_BYTE * len(raw)\n"
            "        self.device.clock.advance(cost)\n",
        )
        findings = findings_for(tree_copy.parent)
        assert [(f.rule, f.path.endswith("mash/bloblog.py")) for f in findings] == [
            ("RL002", True)
        ]

    def test_removing_blob_gc_reach_site_fails_rl003(self, tree_copy):
        # The GC-before-delete crash site is what proves a segment delete
        # is recoverable; silently dropping it is a coverage regression.
        mutate(
            tree_copy / "mash" / "bloblog.py",
            'crash_points.reach("bloblog.gc_before_segment_delete")',
            "pass",
        )
        findings = findings_for(tree_copy.parent)
        # Twice RL003: the registry drift, and run_gc()'s MANIFEST commit,
        # which lost the only crash site in its function.
        assert [f.rule for f in findings] == ["RL003", "RL003"]
        assert any(
            "bloblog.gc_before_segment_delete" in f.message for f in findings
        )
        assert any(
            "run_gc()" in f.message and "crash-coverage gap" in f.message
            for f in findings
        )

    def test_wall_clock_in_iterator_rl001(self, tree_copy):
        # The merge module is pure (no clock), but it still lives on the
        # simulated path: a wall-clock read sneaking in must be caught.
        path = tree_copy / "lsm" / "iterator.py"
        path.write_text(
            path.read_text(encoding="utf-8")
            + "\nimport time\n\n_MERGE_T0 = time.time()\n",
            encoding="utf-8",
        )
        findings = findings_for(tree_copy.parent)
        assert {f.rule for f in findings} == {"RL001"}
        assert all(f.path.endswith("lsm/iterator.py") for f in findings)

    def test_wall_clock_read_fails_rl001(self, tree_copy):
        path = tree_copy / "util" / "crc.py"
        path.write_text(
            path.read_text(encoding="utf-8")
            + "\nimport time\n\n_T0 = time.time()\n",
            encoding="utf-8",
        )
        findings = findings_for(tree_copy.parent)
        assert {f.rule for f in findings} == {"RL001"}

    def test_rebroadened_pcache_recovery_except_fails_rl003(self, tree_copy):
        # Undo the PR's narrowing: a broad handler around the recovery loop
        # could swallow an injected CrashPointFired again.
        mutate(
            tree_copy / "mash" / "pcache.py",
            "except (CorruptionError, UnicodeDecodeError):",
            "except Exception:",
        )
        findings = findings_for(tree_copy.parent)
        assert {f.rule for f in findings} == {"RL003"}

    def test_removing_reach_site_fails_rl003_registry_check(self, tree_copy):
        # Deleting the only reach() of a registered site means the store
        # machine's site test can no longer fire it.
        mutate(
            tree_copy / "lsm" / "db.py",
            'crash_points.reach("flush.before_manifest")',
            "pass",
        )
        findings = findings_for(tree_copy.parent)
        # Registry drift only: _flush_memtable() keeps its second site
        # (flush.after_manifest), so the commit-bracket check stays quiet.
        assert [f.rule for f in findings] == ["RL003"]
        assert "flush.before_manifest" in findings[0].message

    def test_ad_hoc_runtime_error_fails_rl004(self, tree_copy):
        path = tree_copy / "util" / "varint.py"
        path.write_text(
            path.read_text(encoding="utf-8")
            + '\n\ndef _explode():\n    raise RuntimeError("boom")\n',
            encoding="utf-8",
        )
        findings = findings_for(tree_copy.parent)
        assert {f.rule for f in findings} == {"RL004"}

    def test_real_io_import_on_sim_path_fails_rl005(self, tree_copy):
        path = tree_copy / "lsm" / "__init__.py"
        path.write_text(
            "import socket\n" + path.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        findings = findings_for(tree_copy.parent)
        assert {f.rule for f in findings} == {"RL005"}

    def test_stripping_a_suppression_resurfaces_the_finding(self, tree_copy):
        # The deliberate wall-time print in the bench runner is only
        # tolerated because of its annotated suppression.
        mutate(
            tree_copy / "bench" / "__main__.py",
            "  # reprolint: ignore[RL001] -- host-side progress report\n",
            "\n",
        )
        findings = findings_for(tree_copy.parent)
        assert {f.rule for f in findings} == {"RL001"}


class TestInterproceduralMutations:
    """The two static cases that outlived the interprocedural rules
    (RL006–RL009, retired — DESIGN.md §7): RL008's coverage check, now
    RL003's lexical commit-bracket check, and RL010."""

    def test_removing_flush_reach_brackets_fails_rl003(self, tree_copy):
        # Deleting both reach() calls that bracket the flush commit reopens
        # the crash-coverage gap RL008 once found: registry drift for each
        # site, plus a commit in a function left with no crash site at all.
        for site in ("flush.before_manifest", "flush.after_manifest"):
            mutate(tree_copy / "lsm" / "db.py", f'crash_points.reach("{site}")', "pass")
        findings = findings_for(tree_copy.parent)
        assert [f.rule for f in findings] == ["RL003", "RL003", "RL003"]
        for site in ("flush.before_manifest", "flush.after_manifest"):
            assert any(site in f.message for f in findings)
        assert any(
            "_flush_memtable()" in f.message and "crash-coverage gap" in f.message
            for f in findings
        )

    def test_stale_suppression_id_fails_rl010(self, tree_copy):
        # A suppression naming a rule that does not exist suppresses
        # nothing — usually a typo or a retired rule id.
        mutate(
            tree_copy / "bench" / "__main__.py",
            "# reprolint: ignore[RL001] -- host-side progress report only",
            "# reprolint: ignore[RL001, RL008] -- host-side progress report only",
        )
        findings = findings_for(tree_copy.parent)
        assert [f.rule for f in findings] == ["RL010"]
        assert "RL008" in findings[0].message


#: (file under src/repro, [(old, new), ...], pytest node that must fail).
#: The first three are the behavioural mutations of the retired rules' own
#: self-tests; the last two are the escapes the retirement audit found in
#: the dynamic suite and closed (DESIGN.md §7 has the table).
RETIRED_RULE_MUTATIONS = [
    # RL006: a shared counter read-modify-written inside a replay branch.
    pytest.param(
        "mash/xwal.py",
        [
            (
                "                collected.append((shard_ops, reader.tail_corrupt))\n",
                "                if reader.tail_corrupt:\n"
                "                    self.corrupt_shards += 1\n"
                "                collected.append((shard_ops, reader.tail_corrupt))\n",
            )
        ],
        "tests/unit/test_xwal.py::TestWriteReplay::test_corrupt_shard_tolerated",
        id="rl006-rmw",
    ),
    # RL007 S1: the blob sync ahead of a sync=True WAL append is deleted.
    pytest.param(
        "mash/bloblog.py",
        [
            (
                "                # batches — their blob bytes must become durable first.\n"
                "                self.sync_active()\n",
                "                # batches — their blob bytes must become durable first.\n"
                "                pass\n",
            )
        ],
        "tests/integration/test_bloblog_crash.py::TestUnsyncedBlobBeforeWalSync"
        "::test_later_sync_batch_syncs_earlier_blob_bytes",
        id="rl007-s1-sync",
    ),
    # RL009: the replay region's join() is deleted.
    pytest.param(
        "mash/xwal.py",
        [
            (
                "                collected.append((shard_ops, reader.tail_corrupt))\n"
                "        region.join()\n",
                "                collected.append((shard_ops, reader.tail_corrupt))\n",
            )
        ],
        "tests/unit/test_xwal.py::TestParallelTiming::test_more_shards_recover_faster",
        id="rl009-join",
    ),
    # RL007 S2: the segment is recorded in the MANIFEST before its upload.
    pytest.param(
        "mash/bloblog.py",
        [
            # Commit the segment record first …
            (
                "        store = self.env.cloud.store\n"
                "        if len(data) <= self.part_bytes:\n",
                "        store = self.env.cloud.store\n"
                "        edit = VersionEdit()\n"
                "        edit.set_blob_segment(number, len(data), dead)\n"
                "        self.versions.log_and_apply(edit)\n"
                "        if len(data) <= self.part_bytes:\n",
            ),
            # … and no longer after the upload.
            (
                '        crash_points.reach("bloblog.seal_before_manifest")\n'
                "        edit = VersionEdit()\n"
                "        edit.set_blob_segment(number, len(data), dead)\n"
                "        self.versions.log_and_apply(edit)\n",
                '        crash_points.reach("bloblog.seal_before_manifest")\n',
            ),
        ],
        "tests/integration/test_bloblog_crash.py::TestSegmentUploadedBeforeManifest",
        id="rl007-s2-upload",
    ),
    # RL002's escape: the blob-decode cpu charge is dropped.
    pytest.param(
        "mash/bloblog.py",
        [
            (
                "        self.device.clock.advance(cost)\n"
                "        if tracer is not None:\n"
                '            tracer.charge("cpu", cost)\n',
                "        self.device.clock.advance(cost)\n",
            )
        ],
        "tests/property/test_obs_conservation_prop.py::test_all_spans_conserved",
        id="rl002-blob-cpu",
    ),
]


class TestRetiredRuleMutations:
    """Each protocol a retired rule guarded now belongs to a dynamic test;
    deleting or weakening that test must fail here."""

    @pytest.mark.parametrize("rel_path, edits, node", RETIRED_RULE_MUTATIONS)
    def test_owner_fails(self, tree_copy, rel_path, edits, node):
        for old, new in edits:
            mutate(tree_copy / rel_path, old, new)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", node],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(tree_copy.parent)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        # Exactly "tests ran and failed": a node that no longer exists
        # (exit 4) or a copy that no longer imports (exit 2) is not a catch.
        assert proc.returncode == pytest.ExitCode.TESTS_FAILED, (
            f"{node} did not fail on the mutated tree "
            f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}"
        )
