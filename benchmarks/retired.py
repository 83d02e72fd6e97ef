"""Retired names: what the code base deleted, where it must not come back,
and why, in one table that tier-1 checks (``tests/unit/test_retired.py``).

* A ``qualname`` entry names modules (``repro.mash.xwal``) and definitions
  (``module:Class.method``) as the traffic census scans them
  (:func:`benchmarks.traffic.scan_module`), so a retired
  ``LRUBlockCache.get`` leaves a live ``ScanBuffer.get`` alone.
* A ``text`` entry holds regexes matched line by line in every file of its
  scope; its ``witness`` is Python whose last line they match.

A deletion (DESIGN.md §2, "Forks without traffic") adds its names to the
entry with its kind, scope and reason, or to a new one. This file lies
outside every scope, so no pattern matches its own table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from benchmarks.traffic import scan_module

QUALNAME, TEXT = "qualname", "text"


@dataclass(frozen=True)
class Retired:
    id: str
    kind: str
    names: tuple[str, ...]
    scope: tuple[str, ...]
    """Files and directories under the repository root; a ``qualname``
    entry's is the package directory its names start from."""
    reason: str
    witness: str = ""
    exclude: tuple[str, ...] = ()
    """File names a directory scope skips."""


SRC, REPRO = ("src",), ("src/repro",)
_FORKS = 'DESIGN.md §2, "Forks without traffic"'
_ONE_LOG = "one log, every store logs through the xWAL and a serial WAL is its one-shard case (DESIGN.md §2, \"Write path\")"
_ONE_BLOB_LOG = "one log for records and large values, a diverted value is written once inside its xWAL record (DESIGN.md §9)"
_ONE_FACADE = "one way to build and restart a store, the facade's constructor and `reopen` (DESIGN.md §2)"
_NODE = "a sharded node is a `StoreFacade`, timed, request-scoped, served and restarted by it (DESIGN.md §8)"
_LOOKUP = "one path per lookup; each file is checked for its own, since `ScanBuffer.get` and other gets stay (DESIGN.md §2, TRAFFIC.md)"

RETIRED: tuple[Retired, ...] = (
    Retired("lint-driver", TEXT, (r"reprolint: ignore|repro\.lint\.(registry|summaries|suppress|report|engine|cli|config|finding|rules)",),
            ("src", "tests"), "one lint driver, a checked allowlist instead of suppression comments (DESIGN.md §7)", "import repro.lint.rules"),
    Retired("forks", TEXT, (r"filter_partitioning|FILTER_PARTITIONED|point_candidates|admit_after_accesses|_ghost|defer_maintenance|view_event_hook|"
                            r"monkey_allocation|FilterAllocation|filter_allocation|table_filter_policy|lsm\.filters",), SRC,
            f"no deleted fork grows back ({_FORKS})", "point_candidates = None"),
    Retired("sorted-view", TEXT, (r"sorted_view|SortedView|sortedview|view_fanout|view_started|block_refs",), REPRO,
            "one scan path, the sorted view stays deleted (DESIGN.md §10)", "SortedView = None"),
    Retired("scan-buffer", TEXT, (r"PRIME_BYTES|_prefetched_buffer|_carry_source|initial_window|current_window",), REPRO,
            'one scan buffer per cloud table, its primes and window carry stay deleted (DESIGN.md, "The block path")', "PRIME_BYTES = 1"),
    Retired("ranged-read", TEXT, (r"ReadaheadBuffer|ReadaheadStats|INITIAL_READAHEAD|ScanPipeline|scan_pipeline_factory|ScanPrefetcher|PrefetchStats|"
                                  r"_make_scan_prefetcher|repro\.mash\.prefetch",), REPRO,
            'one ranged-read buffer, point gets read no range and scans need no pipeline hook (DESIGN.md, "The block path")', "ScanPipeline = None"),
    Retired("listeners", TEXT, (r"listeners\.on_table_delete\.append",), REPRO,
            "store listeners are wired at construction, so recovery's events reach them (DESIGN.md §2)", "db.listeners.on_table_delete.append(f)"),
    Retired("builder-add", TEXT, (r"builder\.add\(",), ("src/repro/lsm/compaction.py", "src/repro/lsm/db.py"),
            'no per-entry builder call in the loops that feed tables (DESIGN.md, "the compaction inner loop")', "builder.add(b'k', b'v')"),
    Retired("wired", TEXT, (r"\.db\.(scan_pipeline_factory|maintenance_hook) =|op_hook",), REPRO,
            f"a store is wired at construction, never patched afterwards ({_FORKS})", "store.db.maintenance_hook = None"),
    Retired("constructor", TEXT, (r'_init_facade|_LocalFileShim|getattr\(self, "cloud_store"',), REPRO, _ONE_FACADE, "_LocalFileShim = None"),
    Retired("node-timing", TEXT, (r"StopwatchRegion|op_clock|_request_clock|def request_scope|LatencyHistogram|def local_bytes|def cloud_bytes",),
            ("src/repro/serve",), f"{_NODE}; the front-end keeps its open-loop histograms", "def local_bytes(): pass", ("frontend.py",)),
    Retired("numbers", TEXT, (r"get_property|def describe\(self\) -> str|delete_range|def ingest",), ("src/repro/lsm/db.py", "src/repro/mash/store.py"),
            "one numbers surface, no entry points without traffic (DESIGN.md §6, \"Forks without traffic\")", "def ingest(): pass"),
    Retired("tuner", TEXT, (r"TuningController|TuningConfig|record_op|_note_op|_note_shard_op|tuning_interval",), REPRO,
            "the feedback tuner stays deleted, knobs are static (DESIGN.md §12, \"Forks without traffic\")", "TuningController = None"),
    Retired("compaction-readahead", TEXT, (r"compaction_readahead_bytes",), SRC,
            'one compaction read path, the readahead knob stays deleted (DESIGN.md, "The block path")', "compaction_readahead_bytes = 0"),
    Retired("knobs", TEXT, (r"multi_get_parallelism|upload_parallelism|cloud_error_rate|cloud_fault_seed|cloud_fault_op_prefixes|blob_gc_dead_ratio|"
                            r"local_model|scan_reverse|visible_user_entries_reverse|at_directory|DirectoryBackedDevice|REAL_IO_WHITELIST|"
                            r"promotion_heat_threshold",), REPRO, f"knobs that nothing gave a value stay constants ({_FORKS})", "local_model = None"),
    Retired("reverse", TEXT, (r"reverse: bool",), ("src/repro/lsm/db.py", "src/repro/facade.py", "src/repro/serve/sharded.py",
                                                    "src/repro/lsm/iterator.py", "src/repro/lsm/memtable.py", "src/repro/lsm/table_reader.py"),
            'range reads run one direction, reverse scans stay deleted (DESIGN.md, "Scan path")', "def scan(reverse: bool): pass"),
    Retired("slots", TEXT, (r"UPLOAD_SLOTS|fetch_slots|upload_slots",), REPRO,
            'one count of concurrent client requests, one slot model (DESIGN.md §4, "Parallelism model")', "UPLOAD_SLOTS = 4"),
    Retired("uploads", TEXT, (r"upload_part|complete_multipart|pending_multiparts|multipart_part_bytes|part_bytes|mid_upload|rename_file|sata_ssd|"
                              r"readwhilewriting|ops_digest|SequentialGenerator",), REPRO,
            "every upload is one PUT, and the paths only tests reached stay deleted (DESIGN.md §2, TRAFFIC.md)", "def upload_part(): pass"),
    Retired("blob-segment", TEXT, (r"sync_active|record_is_whole|_adopt_segment|_unsealed|valid_prefix_length|memtable_blob_references|"
                                   r"blob_segment_bytes|bloblog\.append|seal_before_manifest",), REPRO, _ONE_BLOB_LOG, "def sync_active(): pass"),
    Retired("slab", TEXT, (r"_compact_slab|slab_compactions",), REPRO,
            "the persistent cache cleans its logs' oldest segments, the whole-slab compaction stays deleted (DESIGN.md §2)", "slab_compactions = 0"),
    Retired("clock", TEXT, (r'ClockCharged|JoinParticipant|clock_hosts|def clock_scope|sim_clock\(|_TAG_RETIRED_SORTED_VIEW|"cache\.slab"',), REPRO,
            "one clock per store, never re-pointed; readers of formats no store holds stay deleted (DESIGN.md §4)", "def clock_scope(): pass"),
    Retired("patched", TEXT, (r"_disable_metadata_pinning|type: ignore\[method-assign\]",), REPRO,
            f"a built store is never patched, an ablation is a config field ({_FORKS})", "_disable_metadata_pinning = None"),
    Retired("harness-knobs", TEXT, (r"^ +(cloud_level|local_bytes_budget|layout_aware|prewarm_heat_threshold|xwal_shards|xwal_apply_cost|"
                                    r"scan_readahead_bytes|pin_metadata) *:",), ("src/repro/bench/harness.py",),
            f"the harness keeps only the knobs every system shares ({_FORKS})", "class Knobs:\n    cloud_level: int = 1"),
    Retired("request-surface", TEXT, (r"SingleStoreServer|RequestServer|run_pending_maintenance",), REPRO,
            "one request surface, the front-end drives any store facade (DESIGN.md §8, TRAFFIC.md)", "RequestServer = None"),
    Retired("log-sync", TEXT, (r"def sync",), ("src/repro/lsm/wal.py",), f"a log syncs only with its record; {_ONE_LOG}", "def sync(): pass"),
    Retired("log-format", TEXT, (r"BatchLogWriter|WriteBatch\.decode|\blog_file_name\b",), REPRO, _ONE_LOG, "BatchLogWriter = None"),
    Retired("batch-encode", TEXT, (r"def encode",), ("src/repro/lsm/write_batch.py",), _ONE_LOG, "def encode(): pass"),
    Retired("mashdb-log", TEXT, (r"\b_(open|replay)_wal\b",), ("src/repro/mash",), _ONE_LOG, "MashDB._replay_wal = None"),
    Retired("lookup-block-cache", TEXT, (r"def (__len__|clear|hit_ratio|used_bytes)\(|def get\(self, file_name",), ("src/repro/lsm/block_cache.py",),
            _LOOKUP, "def clear(): pass"),
    Retired("lookup-builders", TEXT, (r"def (get|add)\(",), ("src/repro/lsm/block.py", "src/repro/lsm/table_builder.py"), _LOOKUP, "def add(): pass"),
    Retired("lookup-table-cache", TEXT, (r"def __len__\(",), ("src/repro/lsm/table_cache.py",), _LOOKUP, "def __len__(): pass"),
    Retired("lookup-layout", TEXT, (r"def (heat_of|knows_file)\(",), ("src/repro/mash/layout.py",), _LOOKUP, "def heat_of(): pass"),
    Retired("lookup-pcache", TEXT, (r"def (__len__|contains_data)\(",), ("src/repro/mash/pcache.py",), _LOOKUP, "def contains_data(): pass"),
    Retired("crash-oracle", TEXT, (r"Recovery[O]racle|Oracle[S]tore|repro\.bench\.crash[m]onkey",), ("src", "tests", ".github"),
            "one crash-recovery oracle, the store machine (DESIGN.md §5)", "import repro.bench.crashmonkey"),
    # Definitions the traffic census deleted that no text entry above matches.
    Retired("log-defs", QUALNAME, ("repro.mash.xwal", "repro.lsm.db:WalWriter", "repro.lsm.db:WalWriter.sync", "repro.lsm.db:DB._live_wal_numbers",
                                   "repro.lsm.wal:XWalWriter.add_record", "repro.lsm.write_batch:WriteBatch.decode",
                                   "repro.mash.store:MashDB._replayer", "repro.mash.store:MashDB._wal_file_names"), REPRO, _ONE_LOG),
    Retired("blob-log-defs", QUALNAME, ("repro.mash.bloblog:BlobLog.divert_batch", "repro.mash.bloblog:BlobLog._append",
                                        "repro.mash.bloblog:BlobLog.on_flush_begin", "repro.mash.bloblog:BlobLog.seal_active",
                                        "repro.lsm.blob:iter_blob_records"), REPRO, f"{_ONE_BLOB_LOG}, and a flush seals its generation"),
    Retired("facade-defs", QUALNAME, ("repro.facade:StoreFacade.op_clock", "repro.mash.store:RocksMashStore.multi_get",
                                      "repro.mash.store:RocksMashStore.reopen", "repro.baselines.local_only:LocalOnlyStore.__init__",
                                      "repro.baselines.local_only:LocalOnlyStore.reopen", "repro.baselines.cloud_only:CloudOnlyStore.__init__",
                                      "repro.baselines.cloud_only:CloudOnlyStore.reopen", "repro.baselines.rocksdb_cloud:RocksDBCloudStore.__init__",
                                      "repro.baselines.rocksdb_cloud:RocksDBCloudStore.reopen"), REPRO,
            f"{_ONE_FACADE}; batched reads wave in `MashDB.multi_get`"),
    Retired("node-defs", QUALNAME, ("repro.serve.sharded:ShardedDB.__init__", "repro.serve.sharded:ShardedDB._defer_hook",
                                    "repro.serve.sharded:ShardedDB._hosts", "repro.serve.sharded:ShardedDB._drain_inline",
                                    "repro.serve.sharded:ShardedDB.put", "repro.serve.sharded:ShardedDB.delete", "repro.serve.sharded:ShardedDB.write",
                                    "repro.serve.sharded:ShardedDB.get", "repro.serve.sharded:ShardedDB.multi_get", "repro.serve.sharded:ShardedDB.scan",
                                    "repro.serve.sharded:ShardedDB.flush", "repro.serve.sharded:ShardedDB.close", "repro.serve.sharded:ShardedDB.execute",
                                    "repro.serve.sharded:ShardEngine._written"), REPRO, f"{_NODE}; `ShardEngine` routes"),
    Retired("fork-join-defs", QUALNAME, ("repro.sim.clock:SimClock.fork", "repro.sim.clock:SimClock.merge", "repro.obs.trace:_Branch",
                                         "repro.mash.placement:PlacementManager._tick_overlap_saved"), REPRO,
            "one fork/join model, `child()`, `join(strict=False)` and `Tracer.absorb_join` (DESIGN.md §4, \"Parallelism model\")"),
    Retired("scan-defs", QUALNAME, ("repro.lsm.iterator:visible_user_entries", "repro.lsm.iterator:clamp_to_range", "repro.lsm.db:DB._table_entries",
                                    "repro.lsm.db:DB._level_entries", "repro.lsm.db:DB._resolve_entries", "repro.lsm.db:DB._files_in_scan_range",
                                    "repro.lsm.table_reader:TableReader.entries"), REPRO,
            'one scan loop: sources yield block lists, `merge_runs` merges them a run at a time and `DB.scan` runs one row loop (DESIGN.md, "Scan path")'),
    Retired("tests-only-defs", QUALNAME, ("repro.lsm.block_cache:LRUBlockCache.get", "repro.storage.cloud:CloudObjectStore.crash",
                                          "repro.storage.local:LocalDevice.rename", "repro.metrics.latency:LatencyHistogram.merge",
                                          "repro.metrics.counters:CounterSet.ratio", "repro.metrics.counters:CounterSet.__repr__",
                                          "repro.lsm.write_batch:WriteBatch.byte_size", "repro.lsm.write_batch:WriteBatch.clear",
                                          "repro.lsm.wal:XWalWriter.offset", "repro.obs.trace:TierTimes.add",
                                          "repro.bench.experiments:_UserByteCounter.clock", "repro.bench.experiments:_UserByteCounter.scan"), REPRO,
            f"second paths only tests took, or nothing; `get` and `crash` are live elsewhere, so each is held by qualname ({_FORKS})"),
)


def check(root: Path) -> list[str]:
    """``path:line: name is retired (entry id): reason`` for each retired name under ``root``."""
    read = cache(lambda path: path.read_text(encoding="utf-8"))
    defined = cache(lambda dotted, path: scan_module(dotted, path).qualnames if path.is_file() else None)
    found = []
    for entry in RETIRED:
        for scope in entry.scope:
            hits = []
            if entry.kind == QUALNAME:
                for name in entry.names:
                    dotted = name.partition(":")[0]
                    path = (root / scope).joinpath(*dotted.split(".")[1:]).with_suffix(".py")
                    qualnames = defined(dotted, path)
                    if qualnames is not None and (name == dotted or name in qualnames):
                        hits.append((path, qualnames.get(name, 1), name))
            else:
                top = root / scope
                for path in [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file() and p.suffix != ".pyc"):
                    if path.name in entry.exclude:
                        continue
                    text = read(path)
                    for pattern in entry.names:
                        hits += [(path, text.count("\n", 0, m.start()) + 1, m.group()) for m in re.finditer(pattern, text, re.M)]
            found += [f"{path.relative_to(root)}:{line}: {name} is retired ({entry.id}): {entry.reason}" for path, line, name in hits]
    return found
