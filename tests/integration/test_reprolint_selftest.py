"""reprolint self-tests against the real tree.

Two halves:

* the shipped tree is clean — ``python -m repro.lint src`` would exit 0;
* **mutation self-tests** — seeding one violation per rule into a copy of
  the real package makes the linter fail. This is the guard's guard: a
  refactor that quietly breaks a rule's detection (or its scoping) fails
  here, not months later when the invariant silently rots.
"""

import shutil
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
    """A scratch copy of src/repro the mutation tests can deface."""
    dst = tmp_path / "repro"
    shutil.copytree(
        SRC / "repro", dst, ignore=shutil.ignore_patterns("__pycache__")
    )
    assert findings_for(tmp_path) == []  # the copy starts clean
    return dst


def mutate(path: Path, old: str, new: str) -> None:
    source = path.read_text(encoding="utf-8")
    assert old in source, f"mutation anchor missing from {path.name}: {old!r}"
    path.write_text(source.replace(old, new), encoding="utf-8")


class TestMutationSelfTests:
    """Each seeded violation must be caught by exactly the right rule."""

    def test_deleting_diskfile_tier_charge_fails_rl002(self, tree_copy):
        # The issue's canonical mutation: drop one tracer mirror from the
        # directory-backed device's sync path — which it inherits from
        # ``LocalDevice``, the one place a local sync is charged — and the
        # charge-attribution gate must fail on that file.
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
        # RL003 flags the registry drift; RL008 independently flags the
        # MANIFEST commit that lost its crash-site bracket (coverage gap).
        assert sorted({f.rule for f in findings}) == ["RL003", "RL008"]
        assert any(
            "bloblog.gc_before_segment_delete" in f.message for f in findings
        )

    def test_deleting_view_persist_tier_charge_fails_rl002(self, tree_copy):
        # Sorted-view persistence models its codec cost on the CPU tier;
        # dropping the tracer mirror must trip the charge-attribution gate.
        mutate(
            tree_copy / "mash" / "store.py",
            "        cost = _VIEW_CODEC_BASE_COST + _VIEW_CODEC_COST_PER_BYTE * len(payload)\n"
            "        self.clock.advance(cost)\n"
            '        self.tracer.charge("cpu", cost)\n'
            '        self.pcache.put_meta(self._name(stamp), "view", payload)\n',
            "        cost = _VIEW_CODEC_BASE_COST + _VIEW_CODEC_COST_PER_BYTE * len(payload)\n"
            "        self.clock.advance(cost)\n"
            '        self.pcache.put_meta(self._name(stamp), "view", payload)\n',
        )
        findings = findings_for(tree_copy.parent)
        assert [(f.rule, f.path.endswith("mash/store.py")) for f in findings] == [
            ("RL002", True)
        ]

    def test_wall_clock_read_in_sortedview_fails_rl001(self, tree_copy):
        # The view module is pure (no clock), but it still lives on the
        # simulated path: a wall-clock read sneaking in must be caught.
        path = tree_copy / "lsm" / "sortedview.py"
        path.write_text(
            path.read_text(encoding="utf-8")
            + "\nimport time\n\n_VIEW_T0 = time.time()\n",
            encoding="utf-8",
        )
        findings = findings_for(tree_copy.parent)
        assert {f.rule for f in findings} == {"RL001"}
        assert all(f.path.endswith("lsm/sortedview.py") for f in findings)

    def test_removing_view_persist_reach_site_fails_rl003(self, tree_copy):
        # The before-persist site is what proves a crash between the file
        # edit and the view persist leaves a recoverable (fallback) store.
        mutate(
            tree_copy / "lsm" / "db.py",
            'crash_points.reach("view.before_persist")',
            "pass",
        )
        findings = findings_for(tree_copy.parent)
        assert [f.rule for f in findings] == ["RL003"]
        assert "view.before_persist" in findings[0].message

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
        # Deleting the only reach() of a registered site means the
        # crashmonkey matrix silently stops covering it.
        mutate(
            tree_copy / "lsm" / "db.py",
            'crash_points.reach("flush.before_manifest")',
            "pass",
        )
        findings = findings_for(tree_copy.parent)
        # Registry drift (RL003) plus the de-bracketed flush commit (RL008).
        assert sorted({f.rule for f in findings}) == ["RL003", "RL008"]
        assert any("flush.before_manifest" in f.message for f in findings)

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
    """RL006–RL010 mutation self-tests: each seeded interprocedural bug is
    caught by exactly the expected rule on the expected file."""

    def test_branch_write_to_shared_self_state_fails_rl006(self, tree_copy):
        # Re-introduce the race this PR fixed: counting corrupt shards
        # inside a fork/join branch instead of folding after the join.
        mutate(
            tree_copy / "mash" / "xwal.py",
            "                collected.append((shard_ops, reader.tail_corrupt))\n",
            "                if reader.tail_corrupt:\n"
            "                    self.corrupt_shards += 1\n"
            "                collected.append((shard_ops, reader.tail_corrupt))\n",
        )
        findings = findings_for(tree_copy.parent)
        assert [(f.rule, f.path.endswith("mash/xwal.py")) for f in findings] == [
            ("RL006", True)
        ]
        assert "corrupt_shards" in findings[0].message

    def test_branch_charging_parent_clock_fails_rl006(self, tree_copy):
        # Branch work must charge the branch's child clock; charging the
        # region's parent clock directly breaks the join-barrier math.
        mutate(
            tree_copy / "mash" / "xwal.py",
            "                child.advance(apply_cost)\n",
            "                self.device.clock.advance(apply_cost)\n",
        )
        findings = findings_for(tree_copy.parent)
        assert [f.rule for f in findings] == ["RL006"]
        assert "parent clock" in findings[0].message

    def test_deleting_blob_sync_before_wal_sync_fails_rl007(self, tree_copy):
        # A sync=True WAL append durably acks earlier pointer records, so
        # the blob bytes they reference must be synced first (S1).
        mutate(
            tree_copy / "mash" / "bloblog.py",
            "            if sync:\n"
            "                # A sync=True WAL append makes *every* earlier unsynced WAL\n"
            "                # record durable, including pointers from prior sync=False\n"
            "                # batches — their blob bytes must become durable first.\n"
            "                self.sync_active()\n",
            "            if sync:\n"
            "                pass\n",
        )
        findings = findings_for(tree_copy.parent)
        assert [f.rule for f in findings] == ["RL007"]
        assert "sync_active" in findings[0].message

    def test_deleting_view_persist_before_commit_fails_rl007(self, tree_copy):
        # The tag-9 sorted-view commit must be preceded by the view persist
        # (S3), else recovery records a stamp whose payload never existed.
        mutate(
            tree_copy / "lsm" / "db.py",
            "            self.view_store.persist(stamp, encode_view(view))\n",
            "            pass\n",
        )
        findings = findings_for(tree_copy.parent)
        assert [f.rule for f in findings] == ["RL007"]
        assert "persist" in findings[0].message

    def test_removing_crash_idempotent_annotation_fails_rl008(self, tree_copy):
        # A durable write inside a crash window must carry its recovery
        # contract; stripping the annotation resurfaces the obligation.
        mutate(
            tree_copy / "mash" / "bloblog.py",
            "                # crash-idempotent: the MANIFEST already forgot the segment;\n"
            "                # recovery's orphan sweep redoes a lost delete.\n"
            "                host.drop_blob_segment(number)\n",
            "                host.drop_blob_segment(number)\n",
        )
        findings = findings_for(tree_copy.parent)
        assert [f.rule for f in findings] == ["RL008"]
        assert "drop_blob_segment" in findings[0].message

    def test_removing_ingest_reach_bracket_fails_rl008(self, tree_copy):
        # Deleting the reach() that brackets the ingest commit reopens the
        # crash-coverage gap this PR closed (plus RL003 registry drift).
        mutate(
            tree_copy / "lsm" / "db.py",
            'crash_points.reach("ingest.before_manifest")',
            "pass",
        )
        findings = findings_for(tree_copy.parent)
        assert sorted({f.rule for f in findings}) == ["RL003", "RL008"]
        assert any("crash-coverage gap" in f.message for f in findings)

    def test_leaked_scan_generator_fails_rl009(self, tree_copy):
        # A scan generator bound to a name and dropped pins table readers
        # and iterator state for the rest of the process.
        path = tree_copy / "lsm" / "db.py"
        path.write_text(
            path.read_text(encoding="utf-8")
            + "\n\ndef _debug_first(db):\n"
            "    it = db.scan(None, None)\n"
            "    return next(it)\n",
            encoding="utf-8",
        )
        findings = findings_for(tree_copy.parent)
        assert [f.rule for f in findings] == ["RL009"]
        assert "never" in findings[0].message

    def test_dropped_fork_join_region_fails_rl009(self, tree_copy):
        # A region whose branches run but whose join() is deleted silently
        # loses the branches' clock contributions.
        mutate(
            tree_copy / "mash" / "xwal.py",
            "                collected.append((shard_ops, reader.tail_corrupt))\n"
            "        region.join()\n",
            "                collected.append((shard_ops, reader.tail_corrupt))\n",
        )
        findings = findings_for(tree_copy.parent)
        assert [(f.rule, f.path.endswith("mash/xwal.py")) for f in findings] == [
            ("RL009", True)
        ]
        assert "join" in findings[0].message

    def test_stale_suppression_id_fails_rl010(self, tree_copy):
        # A suppression naming a rule that does not exist suppresses
        # nothing — usually a typo or a retired rule id.
        mutate(
            tree_copy / "bench" / "__main__.py",
            "# reprolint: ignore[RL001] -- host-side progress report only",
            "# reprolint: ignore[RL001, RL099] -- host-side progress report only",
        )
        findings = findings_for(tree_copy.parent)
        assert [f.rule for f in findings] == ["RL010"]
        assert "RL099" in findings[0].message
