"""Traffic coverage: which lines of ``src/repro`` real traffic reaches.

DESIGN.md §2's rule is that a second code path stays only if traffic
reaches it. Traffic is what the repository runs for its own sake: the
scripts under ``examples/``, the five ``benchmarks.perf`` workloads (seed
42, at the perf benchmark's self-check length) and ``python -m repro.bench
all``. Tier-1 is not traffic; it only tells a line that tests reach from
one that nothing reaches.

Usage, from the repository root::

    python -m benchmarks.traffic            # traffic, then tier-1: write TRAFFIC.md
    python -m benchmarks.traffic --check    # traffic only: fail if the count rose

A *line* is a statement's first line, counted only if the statement
compiles to code (``try:``, ``pass`` and docstrings do not count). A
statement is reached if any line of its header ran. Statements inside
``raise``, ``except``, ``assert`` and ``if TYPE_CHECKING:`` are exempt:
they are the error paths a store keeps whether or not anything fails.
Every other line traffic does not reach belongs to a region, its enclosing
function or method (nested functions fold into theirs), and every region
carries one verdict from :data:`VERDICTS`. ``repro.lint`` is measured
apart: CI's lint job is its traffic.

``--check`` fails when the non-exempt lines without traffic exceed
:data:`PINNED_WITHOUT_TRAFFIC`, or when a region has no verdict or a
verdict no region. Lower the pin when a change lowers the count; never
raise it. ``benchmarks/retired.py`` keeps what was deleted deleted.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from types import CodeType, FrameType
from typing import Any

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
MEASURED_APART = ("lint",)
OUTPUT = REPO_ROOT / "TRAFFIC.md"
PERF_SEED = 42

PINNED_WITHOUT_TRAFFIC = 296
"""Non-exempt lines no traffic reaches (tests only, or nothing at all)."""

SAFETY, SURFACE, OPEN = "safety", "surface", "open"

_BLOB_GC = "item 10: deleting a segment all of whose records died; E23's segments, one per flushed generation, never die whole in its run"
_SHARD_AXIS = "item 1(b): E22 issues only YCSB A/B/C point ops; the store machine's planned shard axis exercises it"

VERDICTS: dict[str, tuple[str, str]] = {
    # -- baselines
    "repro.baselines.cloud_only:CloudOnlyConfig.small": (SURFACE, "the scaled-down config, like `StoreConfig.small()`"),
    "repro.baselines.local_only:LocalOnlyConfig.small": (SURFACE, "the scaled-down config, like `StoreConfig.small()`"),
    "repro.baselines.rocksdb_cloud:RocksDBCloudConfig.small": (SURFACE, "the scaled-down config, like `StoreConfig.small()`"),
    "repro.baselines.rocksdb_cloud:WholeFileCache._recover": (SAFETY, "re-indexes the file cache after a restart"),
    "repro.baselines.rocksdb_cloud:WholeFileCache.ensure": (SAFETY, "a file larger than the whole cache reads through"),
    # -- bench
    "repro.bench.__main__:main": (SURFACE, "`--list` and the unknown-id message; CI's bench smoke runs `--list`"),
    "repro.bench.experiments:e15_fault_tolerance": (SAFETY, "counts a wrong answer, which the experiment asserts never happens"),
    "repro.bench.experiments:e19b_write_fault_storm": (SAFETY, "counts a wrong answer, which the experiment asserts never happens"),
    "repro.bench.report:Table.cell": (SURFACE, "the E-series shape assertions in `benchmarks/test_e*.py` read tables through it"),
    "repro.bench.report:Table.column": (SURFACE, "the E-series shape assertions in `benchmarks/test_e*.py` read tables through it"),
    "repro.bench.report:Table.row_by": (SURFACE, "the E-series shape assertions in `benchmarks/test_e*.py` read tables through it"),
    "repro.bench.report:Table.to_dict": (SURFACE, "`benchmarks/test_e20`–`e23` write the CI-gated `BENCH_e2x.json` through it"),
    "repro.errors:NotFoundError.__str__": (SAFETY, "the message of a missing-file error"),
    # -- facade
    "repro.facade:StoreFacade.write": (SURFACE, "the atomic multi-key write; workloads and examples put one key at a time"),
    "repro.facade:StoreFacade._explain": (SURFACE, "bloom-reject, false-positive and table-open rows; the quickstart's cold get shows the rest"),
    "repro.facade:StoreFacade.close": (SURFACE, "closes a baseline store; the baseline suites call it"),
    "repro.facade:StoreFacade.reopen": (SAFETY, "a clean restart; traffic restarts after a crash, and `test_reopen.py` checks both for every system"),
    # -- engine
    "repro.lsm.block:Block.seek": (SAFETY, "a block with no restart points"),
    "repro.lsm.block:Block.first": (SAFETY, "a goal past the block's last entry"),
    "repro.lsm.block_cache:LRUBlockCache.put": (SAFETY, "a block larger than the whole cache, and a key put twice: the stack puts a block only after its miss"),
    "repro.lsm.block_cache:BlockStack.scan_window": (SAFETY, "the base engine's stack, which scans block by block; the store overrides it"),
    "repro.lsm.block_cache:ScanReads.fan_out": (SAFETY, "a seek that opens no table"),
    "repro.lsm.block_cache:ScanReads.table_started": (SAFETY, "a table already seen, or local, is not primed"),
    "repro.lsm.block_cache:SequentialStack.block": (SAFETY, "a block outside the primed window; a compaction pass reads in order"),
    "repro.lsm.check:CheckReport.error": (SAFETY, "records a finding; traffic checks only clean stores"),
    "repro.lsm.check:CheckReport.warn": (SAFETY, "records a warning; traffic checks only clean stores"),
    "repro.lsm.check:CheckReport.summary": (SURFACE, "the report's one-line summary, for an operator"),
    "repro.lsm.check:check_table": (SAFETY, "a corrupt table's findings; traffic checks only clean stores"),
    "repro.lsm.check:check_blob_segments": (SAFETY, "a missing, short or corrupt segment and a dangling pointer; E23 checks only clean separated stores"),
    "repro.lsm.check:check_db": (SAFETY, "missing-file, orphan and torn-WAL findings; traffic checks only clean stores"),
    "repro.lsm.compaction:pick_subcompaction_boundaries": (SAFETY, "no interior boundary to split at"),
    "repro.lsm.compaction:CompactionPicker.pick": (SAFETY, "no seed file for a level over its target"),
    "repro.lsm.compaction:CompactionJob._plan_partitions": (SAFETY, "a subcompaction request with nothing to split"),
    "repro.lsm.compaction:CompactionJob._merge_partition": (SURFACE, "a compaction filter's drop above the base level becomes a tombstone; `session_ttl.py` drops at the base"),
    "repro.lsm.db:DB.close": (SAFETY, "a second close"),
    "repro.lsm.db:DB._replay_wal": (SAFETY, "the values a separated store's replay found, for the recovery flush to seal; no experiment restarts one"),
    "repro.lsm.db:DB._recover": (SAFETY, "blob-log reconciliation at recovery; no experiment reopens a separated store"),
    "repro.lsm.db:DB._check_blob_shards": (SAFETY, "a separated store's recovery refuses a shard past its count; no experiment reopens a separated store"),
    "repro.lsm.db:DB._purge_orphans": (SAFETY, "an unparseable file name under the prefix"),
    "repro.lsm.db:DB.write": (SAFETY, "an empty batch"),
    "repro.lsm.db:DB._protected_file_numbers": (SAFETY, "a scan's pinned version keeps the tables a compaction replaced"),
    "repro.lsm.db:DB._purge_deferred_deletes": (SAFETY, "deletes a pinned version held back, once the scan lets go"),
    "repro.lsm.db:DB.drop_blob_segment": (OPEN, _BLOB_GC),
    "repro.lsm.db:DB._smallest_snapshot": (SURFACE, "a compaction under a held snapshot; the quickstart's snapshot sees none"),
    "repro.lsm.db:DB.compact_range": (OPEN, "items 8 and 10: manual compaction of a universal tree (E17 compacts by policy; item 8 absorbs universal compaction), and blob GC after a manual compaction (the blob log's row)"),
    "repro.lsm.db:DB._run_compaction": (SAFETY, "an input table a pinned version still reads is deleted later"),
    "repro.lsm.db:DB._get_at": (SAFETY, "a tombstone found in a table"),
    "repro.lsm.db:DB.scan": (OPEN, "item 10: a scan of a blob-separated store (E23 runs none); and the row loop's guards no traffic scan meets: an entry its snapshot hides, a shadowed version or a tombstone, a `limit` of 0, and a limited scan pulled past its limit (the facade stops at it)"),
    "repro.lsm.db:DB.metrics": (SURFACE, "the `blob.*` metrics of a separated store"),
    "repro.lsm.format:seal_block": (SAFETY, "a block zlib does not shrink is stored raw"),
    "repro.lsm.format:parse_file_name": (SAFETY, "a file outside the prefix"),
    "repro.lsm.table_reader:TableReader.get": (SAFETY, "a bloom false positive on the table reader's own lookup"),
    "repro.lsm.universal:UniversalCompactionPicker.pick": (OPEN, "item 8: a full merge of every run, which E17 does not reach at its size; item 8 absorbs universal compaction"),
    "repro.lsm.universal:UniversalCompactionPicker.manual_compaction": (OPEN, "item 8: `compact_range` on a universal tree; E17 compacts by policy"),
    "repro.lsm.version:VersionEdit.encode": (OPEN, _BLOB_GC),
    "repro.lsm.version:VersionEdit.delete_blob_segment": (OPEN, _BLOB_GC),
    "repro.lsm.version:VersionSet._apply_blob": (OPEN, _BLOB_GC),
    "repro.lsm.version:VersionEdit.decode": (SAFETY, "blob-segment and separation-brand tags: only a reopened separated store replays them"),
    "repro.lsm.version:Version.overlapping_files": (SAFETY, "an L0 overlap that grows the range again"),
    "repro.lsm.version:Version.is_base_level_for_key": (SAFETY, "a key that a deeper level still holds"),
    "repro.lsm.version:VersionSet.rewrite_manifest": (OPEN, "item 10: the blob segments in a separated store's MANIFEST rewrite; E23 never grows a MANIFEST past its limit"),
    "repro.lsm.wal:LogReader.__iter__": (SAFETY, "a torn or corrupt log tail"),
    # -- blob log: E23 writes and reads with synced puts, and never restarts,
    # scans, deletes or checkpoints
    "repro.mash.bloblog:BlobLog.should_divert": (SAFETY, "a raw value shaped like a pointer is diverted whatever its size, so reads can trust the magic"),
    "repro.mash.bloblog:BlobLog.fold_dead_into_edit": (SAFETY, "a dropped pointer into a segment the MANIFEST no longer holds"),
    "repro.mash.bloblog:BlobLog.run_gc": (OPEN, f"{_BLOB_GC}; and a GC pass re-entered from its own re-puts"),
    "repro.mash.bloblog:BlobLog.delete_segment_file": (OPEN, f"{_BLOB_GC}; recovery deletes one a crashed seal left"),
    "repro.mash.bloblog:BlobLog.recover": (SAFETY, "segment reconciliation at a separated store's recovery; no experiment restarts one"),
    "repro.mash.checkpoint:_checkpoint_blob_key": (OPEN, "item 10: the checkpoint of a separated store; `analytics_clone.py` keeps separation off"),
    "repro.mash.checkpoint:create_checkpoint": (OPEN, "item 10: copies a separated store's blob segments; `analytics_clone.py` keeps separation off"),
    "repro.mash.checkpoint:restore_checkpoint": (OPEN, "item 10: restores a separated store's blob segments"),
    # -- store
    "repro.mash.layout:BlockHeatTracker.plan_inheritance": (SAFETY, "cold and unmapped inputs inherit nothing"),
    "repro.mash.pcache:_records": (SAFETY, "a torn or corrupt segment tail ends the walk"),
    "repro.mash.pcache:PersistentCache.put_meta": (SAFETY, "metadata larger than the whole budget"),
    "repro.mash.pcache:PersistentCache._index_meta": (SAFETY, "metadata replaced in place"),
    "repro.mash.pcache:PersistentCache.put_data": (SAFETY, "a block larger than the budget, and one already cached"),
    "repro.mash.placement:PlacementManager._enforce_budget": (SAFETY, "a budget no victim can bring the store under"),
    "repro.mash.placement:PlacementManager._pick_budget_victim": (SAFETY, "no table left to demote"),
    "repro.mash.placement:PlacementManager.maybe_promote": (SAFETY, "promotion without headroom"),
    "repro.mash.store:RocksMashStore._read_local_block": (SAFETY, "a table demoted under the reader"),
    "repro.lsm.wal:XWalWriter.add_batch": (OPEN, "item 10: a delete in a batch that diverts a value (E23's YCSB-A deletes nothing); and a multi-shard synced batch with its `xwal.partial_sync` crash site, reached through `StoreFacade.write`"),
    "repro.lsm.wal:XWalReplayer.replay": (SAFETY, "a corrupt shard"),
    # -- metrics, observability
    "repro.metrics.latency:LatencyHistogram.percentile": (SAFETY, "an empty histogram and the extreme percentiles"),
    "repro.obs.prom:_sanitize": (SAFETY, "a metric name starting with a digit"),
    "repro.obs.trace:TraceSpan.to_dict": (SURFACE, "JSONL span export"),
    "repro.obs.trace:TraceSpan.from_dict": (SURFACE, "JSONL span import"),
    "repro.obs.trace:summarize_spans": (SURFACE, "per-op span summary for an operator"),
    "repro.obs.trace:Tracer.request_scope": (SAFETY, "a scope with no open span"),
    "repro.obs.trace:Tracer.close_branch": (SAFETY, "a branch closed with no frame open"),
    "repro.obs.trace:Tracer.absorb_join": (SAFETY, "joins outside a span, and joins that take no time"),
    "repro.obs.trace:Tracer.export_jsonl": (SURFACE, "JSONL span export"),
    "repro.obs.trace:Tracer.spans_from_jsonl": (SURFACE, "JSONL span import"),
    # -- serving
    "repro.serve.frontend:ServingResult.throughput": (SAFETY, "a run with no elapsed time"),
    "repro.serve.sharded:ShardedDB.shards_touched": (OPEN, _SHARD_AXIS),
    "repro.serve.sharded:ShardEngine.delete": (OPEN, _SHARD_AXIS),
    "repro.serve.sharded:ShardEngine.write": (OPEN, _SHARD_AXIS),
    "repro.serve.sharded:ShardEngine.multi_get": (OPEN, _SHARD_AXIS),
    "repro.serve.sharded:ShardEngine.scan": (OPEN, _SHARD_AXIS),
    "repro.serve.sharded:ShardEngine.close": (OPEN, _SHARD_AXIS),
    "repro.serve.sharded:ShardEngine.abandon": (OPEN, _SHARD_AXIS),
    # -- simulation and storage
    "repro.sim.clock:SimClock.child": (SURFACE, "a child at the parent's own time; the front-end always names the request's start"),
    "repro.sim.clock:SimClock.join": (SAFETY, "a join of no children"),
    "repro.sim.failure:FaultInjector.schedule_failure": (SAFETY, "a scheduled fault; the fault suites use it"),
    "repro.sim.failure:FaultInjector.check": (SAFETY, "a scheduled fault firing"),
    "repro.sim.failure:CrashPointRegistry.sites": (SAFETY, "lists the crash sites the store machine fires"),
    "repro.sim.failure:CrashPointRegistry.armed": (SAFETY, "the armed crash site, for the crash tests"),
    "repro.sim.failure:CrashPointRegistry.reach": (SAFETY, "an armed crash site skipping its first reaches"),
    "repro.sim.failure:armed": (SAFETY, "arming a crash site for one block of code"),
    "repro.storage.cost:MonthlyBill.total": (SURFACE, "the bill's total; E7 prints its parts"),
    "repro.storage.env:Env.is_cloud": (SAFETY, "the base `Env` default; every environment overrides it"),
    "repro.storage.env:CloudEnv.is_cloud": (SAFETY, "asked only by scan prefetch, which traffic runs on the hybrid env"),
    "repro.storage.env:_CloudWritableFile.close": (SAFETY, "a second close"),
    "repro.storage.env:HybridEnv.migrate": (SAFETY, "a migration to the tier the file is on"),
    "repro.storage.local:LocalDevice.sync": (SAFETY, "local fault injection"),
    "repro.storage.local:LocalDevice.read": (SAFETY, "local fault injection"),
    "repro.storage.local:LocalDevice.crash": (SAFETY, "a torn-tail crash"),
    "repro.util.bloom:BloomFilterPolicy.key_may_match": (SAFETY, "a degenerate filter, or one with a reserved probe count, matches everything"),
    "repro.util.crc:unmask": (SAFETY, "the inverse of `mask`, for checking a stored checksum by hand"),
    "repro.util.encoding:pack_trailer": (SAFETY, "builds internal keys for tests and rejects a sequence out of range"),
    "repro.util.encoding:make_internal_key": (SURFACE, "the codec's builder of internal-key bytes, which about 19 test files share; stored keys are built by the table builder, and a copy in each test file would remove no code"),
    # -- workloads
    "repro.workloads.dbbench:BenchResult.ops_per_second": (SAFETY, "a run with no elapsed time"),
    "repro.workloads.ycsb:YCSBResult.throughput": (SAFETY, "a run with no elapsed time"),
    "repro.workloads.ycsb:run_phase": (SAFETY, "counts a read that found nothing, which the loaded workloads never issue"),
    "repro.workloads.ycsb:outcome_digest_update": (SAFETY, "hashes a scan outcome; the digesting experiments run no scans"),
}
"""Region qualname -> ``(verdict, reason)``.

A key is a region: ``module:Class.method``, ``module:function``,
``module:Class`` (its class body) or ``module:<module>``. A key covers
that region alone, so new code without traffic always needs a verdict of
its own.

* **safety**: a corruption check, a crash path or an argument check that
  no correct caller trips;
* **surface**: operator API that real use reaches and traffic does not
  yet;
* **open**: a decision a ROADMAP item owns; the reason names the item.
"""


# -- what counts -------------------------------------------------------------


@dataclass
class Module:
    name: str
    path: Path
    regions: dict[int, str] = field(default_factory=dict)
    """Counted line -> the qualname of its region."""
    headers: dict[int, tuple[int, ...]] = field(default_factory=dict)
    """Counted line -> every line of its statement's header."""
    exempt: set[int] = field(default_factory=set)
    qualnames: dict[str, int] = field(default_factory=dict)
    """Every class, function and method a region can be keyed by -> its first line."""


def code_lines(code: CodeType) -> set[int]:
    """Every line an instruction of ``code``, or of code nested in it, sits on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def header_lines(node: ast.stmt) -> tuple[int, ...]:
    """A statement's own lines: all of a simple one; a compound one's up to
    its first block, with a definition's decorators."""
    end = node.end_lineno or node.lineno
    blocks = [getattr(node, name, None) for name in ("body", "handlers", "orelse", "finalbody", "cases")]
    starts = [block[0].lineno for block in blocks if isinstance(block, list) and block]
    if starts:
        end = max(node.lineno, min(starts) - 1)
    first = node.lineno
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.decorator_list:
        first = min(decorator.lineno for decorator in node.decorator_list)
    return tuple(range(first, end + 1))


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def scan_module(name: str, path: Path) -> Module:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    has_code = code_lines(compile(tree, str(path), "exec"))
    module = Module(name, path)

    def visit(body: list[ast.stmt], region: str, scope: str | None, exempt: bool) -> None:
        """``scope`` is the dotted class path a definition here extends, or
        None inside a function, where definitions fold into ``region``."""
        for node in body:
            own_exempt = exempt or isinstance(node, (ast.Raise, ast.Assert))
            header = header_lines(node)
            counted = not isinstance(node, ast.Try) and has_code.intersection(header)
            if counted and node.lineno not in module.regions:
                module.regions[node.lineno] = region
                module.headers[node.lineno] = header
                if own_exempt:
                    module.exempt.add(node.lineno)
            inner_region, inner_scope = region, scope
            if scope is not None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{scope}.{node.name}" if scope else node.name
                module.qualnames.setdefault(f"{name}:{qualname}", node.lineno)
                inner_region = f"{name}:{qualname}"
                inner_scope = qualname if isinstance(node, ast.ClassDef) else None
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                visit(node.body, inner_region, inner_scope, True)
                visit(node.orelse, inner_region, inner_scope, own_exempt)
                continue
            for attr in ("body", "orelse", "finalbody"):
                block = getattr(node, attr, None)
                if isinstance(block, list):
                    visit(block, inner_region, inner_scope, own_exempt)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, inner_region, inner_scope, True)
            for case in getattr(node, "cases", []):
                visit(case.body, inner_region, inner_scope, own_exempt)

    visit(tree.body, f"{name}:<module>", "", False)
    return module


def census_modules() -> list[Module]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[0] in MEASURED_APART:
            continue
        dotted = ".".join(("repro", *parts)).removesuffix(".__init__")
        found.append(scan_module(dotted, path))
    return found


# -- tracing -----------------------------------------------------------------


class LineTracer:
    """``sys.settrace`` hook recording the lines run in the census modules."""

    def __init__(self, paths: list[Path]) -> None:
        self.hits: dict[str, set[int]] = {os.path.realpath(p): set() for p in paths}
        self._locals: dict[str, Any] = {}

    def _global(self, frame: FrameType, event: str, arg: object) -> Any:
        filename = frame.f_code.co_filename
        local = self._locals.get(filename)
        if local is None:
            hits = self.hits.get(os.path.realpath(filename))
            local = False if hits is None else self._recorder(hits.add)
            self._locals[filename] = local
        return local(frame, event, arg) if local else None

    @staticmethod
    def _recorder(add: Callable[[int], None]) -> Callable[..., Any]:
        def local(frame: FrameType, event: str, arg: object) -> Any:
            add(frame.f_lineno)
            return local

        return local

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        previous = sys.gettrace()
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(previous)

    def reached(self, module: Module) -> set[int]:
        hits = self.hits[os.path.realpath(module.path)]
        return {line for line, header in module.headers.items() if hits.intersection(header)}


def run_examples() -> None:
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        saved = sys.argv
        sys.argv = [str(script)]
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.argv = saved


def run_perf_workloads() -> int:
    """The five workloads once each; returns the ops they answered wrong."""
    from benchmarks.perf import load_contract
    from benchmarks.perf.__main__ import SELFCHECK_SECONDS
    from benchmarks.perf.runner import run_measured
    from benchmarks.perf.workloads import WORKLOADS

    failed = 0
    for spec in load_contract()["workloads"]:
        failed += run_measured(WORKLOADS[spec["name"]], PERF_SEED, SELFCHECK_SECONDS, replicas=1)["failed"]
    return failed


def run_experiments() -> int:
    from repro.bench.__main__ import main as bench_main

    return bench_main(["all"])


def trace_traffic(modules: list[Module]) -> LineTracer:
    tracer = LineTracer([m.path for m in modules])
    with tracer.active():
        for label, phase in (("examples", run_examples), ("perf", run_perf_workloads), ("bench", run_experiments)):
            print(f"traffic: {label} ...", file=sys.stderr, flush=True)
            with contextlib.redirect_stdout(io.StringIO()):
                status = phase()
            if status:
                raise SystemExit(f"traffic: {label} did not run clean ({status})")
    return tracer


def trace_tests(modules: list[Module]) -> tuple[LineTracer, int]:
    import pytest

    tracer = LineTracer([m.path for m in modules])
    print("traffic: tier-1 ...", file=sys.stderr, flush=True)
    with tracer.active():
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(REPO_ROOT / "tests")])
    return tracer, int(status)


# -- the census --------------------------------------------------------------


@dataclass
class Census:
    rows: list[tuple[str, int, int, int, int, int]] = field(default_factory=list)
    """``(module, counted, traffic, tests only, nothing, exempt unreached)``."""
    regions: dict[str, list[int]] = field(default_factory=dict)
    """Region -> ``[tests only, nothing]`` over its lines without traffic."""

    @property
    def without_traffic(self) -> int:
        return sum(tests + nothing for tests, nothing in self.regions.values())

    @property
    def counted(self) -> int:
        return sum(row[1] for row in self.rows)

    def problems(self) -> list[str]:
        found = []
        if self.without_traffic > PINNED_WITHOUT_TRAFFIC:
            found.append(
                f"{self.without_traffic} non-exempt lines without traffic, above the pin "
                f"{PINNED_WITHOUT_TRAFFIC}: give the new code traffic or delete it"
            )
        for region in sorted(self.regions):
            if region not in VERDICTS:
                found.append(f"{region}: no verdict")
        for key, (verdict, reason) in sorted(VERDICTS.items()):
            if verdict not in (SAFETY, SURFACE, OPEN):
                found.append(f"{key}: unknown verdict {verdict!r}")
            elif verdict == OPEN and "item" not in reason:
                found.append(f"{key}: an open verdict names its ROADMAP item")
            elif key not in self.regions:
                found.append(f"{key}: verdict for a region with traffic, or one that is gone")
        return found


def take_census(modules: list[Module], traffic: LineTracer, tests: LineTracer | None) -> Census:
    census = Census()
    for module in modules:
        by_traffic = traffic.reached(module)
        by_tests = tests.reached(module) if tests is not None else set()
        tests_only = nothing = exempt_unreached = 0
        for line, region in sorted(module.regions.items()):
            if line in by_traffic:
                continue
            if line in module.exempt:
                exempt_unreached += 1
                continue
            tally = census.regions.setdefault(region, [0, 0])
            if line in by_tests:
                tally[0] += 1
                tests_only += 1
            else:
                tally[1] += 1
                nothing += 1
        census.rows.append(
            (module.name, len(module.regions), len(by_traffic), tests_only, nothing, exempt_unreached)
        )
    return census


def render(census: Census, tests_status: int) -> str:
    total = census.counted
    share = 100 * census.without_traffic / total if total else 0.0
    out = [
        "# TRAFFIC — which lines of `src/repro` real traffic reaches",
        "",
        "Generated by `python -m benchmarks.traffic` (see its docstring for what",
        "counts as a line, as traffic and as exempt); do not edit by hand.",
        "`python -m benchmarks.traffic --check` re-traces the traffic and fails if",
        "the lines without it rise above the pin. Traffic repeats exactly; the",
        "split between *tests only* and *nothing* follows hypothesis's draws.",
        "",
        f"- Counted lines outside `repro.lint`: {total}",
        f"- Non-exempt lines without traffic: **{census.without_traffic}** ({share:.1f} %),"
        f" pinned at {PINNED_WITHOUT_TRAFFIC}",
        f"- Tier-1 exit status while traced: {tests_status}",
        "",
        "## By module",
        "",
        "| module | lines | traffic | tests only | nothing | exempt, unreached |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    for name, counted, traffic, tests_only, nothing, exempt in census.rows:
        out.append(f"| `{name}` | {counted} | {traffic} | {tests_only} | {nothing} | {exempt} |")
    totals = [sum(row[i] for row in census.rows) for i in range(1, 6)]
    out.append("| **total** | " + " | ".join(str(t) for t in totals) + " |")
    out += [
        "",
        "## Regions without traffic",
        "",
        "| region | tests only | nothing | verdict | reason |",
        "|---|---:|---:|---|---|",
    ]
    for region, (tests_only, nothing) in sorted(census.regions.items()):
        verdict, reason = VERDICTS.get(region, ("**none**", ""))
        out.append(f"| `{region}` | {tests_only} | {nothing} | {verdict} | {reason} |")
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.traffic", description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="trace traffic only; fail if the count rose or a verdict and its region disagree")
    args = parser.parse_args(argv)
    modules = census_modules()
    traffic = trace_traffic(modules)
    if args.check:
        census = take_census(modules, traffic, None)
        status = 0
    else:
        tests, status = trace_tests(modules)
        census = take_census(modules, traffic, tests)
        OUTPUT.write_text(render(census, status), encoding="utf-8")
        print(f"traffic: wrote {OUTPUT.relative_to(REPO_ROOT)}")
    problems = census.problems()
    for problem in problems:
        print(f"traffic: {problem}")
    print(
        f"traffic: {census.without_traffic} of {census.counted} counted lines without traffic "
        f"(pin {PINNED_WITHOUT_TRAFFIC}); {'FAILED' if problems or status else 'ok'}"
    )
    return 1 if problems or status else 0


if __name__ == "__main__":
    # Set iteration order decides which branch some loops take first: pin
    # it, in a fresh interpreter if need be, so the count repeats. The
    # interpreters tier-1 starts import from ``src`` too.
    source_root = str(REPO_ROOT / "src")
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if os.environ.get("PYTHONHASHSEED") != "0" or source_root not in paths:
        os.environ["PYTHONHASHSEED"] = "0"
        os.environ["PYTHONPATH"] = os.pathsep.join([source_root, *paths])
        os.execv(sys.executable, [sys.executable, *sys.orig_argv[1:]])
    sys.exit(main())
