"""Stateful oracle over the store facade, and the one crash-recovery oracle.

One hypothesis ``RuleBasedStateMachine`` drives a :class:`RocksMashStore`
through its facade — put (synced or not) / delete / write-batch / get /
multi_get / scan (``limit``, optional snapshot) / take and
release snapshot (a second release is refused) / flush / ``compact_range`` /
``reopen(crash=True)`` with or without a torn tail / a crash armed at any
registered crash site / a burst of cloud faults / checkpoint — with the
configuration drawn once per run from {blob separation on, off} ×
{caches roomy, starved} × {scan readahead on, off} × {scan prefetch off,
depth 2} × {leveled, universal compaction}. After every step the store equals a dict model, every
live snapshot equals the frozen copy taken with it, and every span the step
recorded conserves its simulated time (``local + cloud + cpu == elapsed``);
after flush, compact and reopen ``check_db`` is clean.

Prefetch at depth 2 puts every scan through the scan pipeline (seek fan-out,
speculative opens, waste at the end of a short scan) on the one path a scan
takes over on-disk runs. Universal keeps the 1 KiB file target, so
``compact_range`` rewrites a universal tree too.

Starved means a 512 B DRAM block cache, a 1 KiB persistent-cache data budget
and everything below L0 in the cloud: a step's reads then go down the whole
block path — pcache admission and eviction, readahead (or, with it off, one
GET per block) and demand reads from the cloud — where the roomy caches
answer nearly everything from DRAM.

The tree is tiny (1 KiB memtable, 256 B blocks, 1 KiB files, 1 KiB multipart
parts and MANIFEST cap) and the keys are
few and prefix-heavy, so a run of a few dozen steps has every key in several
versions across the memtable and two or three levels, and block and file
boundaries fall inside one user key's versions. Seeded by hand it kills an
off-by-one in the snapshot floor of ``visible_user_entries``, a tombstone
read off the wrong byte of the trailer, and a ``MemTable.get`` that bisects
on ``(user_key,)`` alone.

A ``checkpoint`` rule snapshots the store into the cloud and restores it
under a fresh prefix on the same devices: the clone equals the model frozen
at that step and checks clean. Every step also checks that ``metrics()``
counts each block the tracer saw served, source by source. The engine's
range-delete and bulk-ingest entry points are gone (nothing but tests reached
them), so no rule stands in for them.

``crash_at_site`` draws any site of ``crash_points.sites()`` and arms it
around an op that can reach it. A key the interrupted write touched may hold
its old or its new value, and a key put with ``sync=False`` since the last
flush any value from its last synced one on; the reopen reads each such key
once and the model is exact again. An interrupted checkpoint stays invisible.
``test_every_registered_site_fires_and_recovers`` fires every site by a fixed
rule sequence on a leveled and a universal tree, so an unreachable site fails
tier-1. ``cloud_fault_burst`` runs a write, flush or compaction against a
failing cloud: it returns or raises ``IOErrorSim``, the tree checks clean and
the next flush succeeds.

Still open under item 1: the shard axis.

Budgets come from the hypothesis profile (``tests/conftest.py``): 60 examples
× 50 steps in tier-1, 400 × 80 under ``--hypothesis-profile=long``.
"""

from dataclasses import replace

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import InvalidArgumentError, IOErrorSim, NotFoundError
from repro.lsm.block_cache import BLOCK_SOURCES
from repro.lsm.check import check_db
from repro.lsm.write_batch import WriteBatch
from repro.mash.checkpoint import create_checkpoint, list_checkpoints, restore_checkpoint
from repro.mash.store import RocksMashStore, StoreConfig
from repro.mash.xwal import XWalReplayer
from repro.obs.trace import span_conserved
from repro.sim.failure import CrashPointFired, FaultInjector, armed, crash_points

# Prefix-related and adjacent keys: seeks land between a key and its
# extension, and one key's versions share blocks with its neighbours'.
KEYS = [b"a", b"a\x00", b"aa", b"ab", b"ab\x00", b"b", b"b\xff", b"ba"] + [
    b"key%02d" % i for i in range(12)
]
keys = st.sampled_from(KEYS)
# Either side of the blob threshold below, and of a block.
values = st.one_of(st.binary(max_size=6), st.binary(min_size=12, max_size=40), st.just(b"v" * 300))
bounds = st.one_of(st.none(), keys, st.sampled_from([b"", b"a\x01", b"c", b"key05\x00", b"z"]))

write_ops = st.tuples(keys, st.one_of(st.none(), values))  # None deletes
batch_ops = st.lists(write_ops, min_size=1, max_size=6)
torn_tail_seeds = st.one_of(st.none(), st.integers(0, 1 << 16))

BLOB_THRESHOLD = 8
# Over the blob threshold: a diverted put.
blob_values = st.one_of(st.binary(min_size=BLOB_THRESHOLD + 1, max_size=40), st.just(b"v" * 300))

# A batch whose keys land on several xWAL shards, for a direct call of
# ``crash_at_site``; hypothesis draws its own.
MULTI_SHARD_OPS = [(key, b"batch") for key in KEYS[:6]]


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = None
        self.model = {}
        # key -> every value a crash may leave it holding: the last synced
        # value, then each later unsynced (or interrupted) one, in order.
        self.candidates = {}
        self.snapshots = []  # (Snapshot, the model when it was taken)
        self.checkpoints = 0
        # Blocks served by restored clones, which report to this store's
        # tracer (they share its devices); a reopen starts a fresh tracer.
        self.clone_blocks = dict.fromkeys(BLOCK_SOURCES, 0)

    @initialize(
        blob=st.booleans(),
        starved=st.booleans(),
        readahead=st.booleans(),
        prefetch=st.booleans(),
        universal=st.booleans(),
    )
    def open_store(self, blob, starved=False, readahead=True, prefetch=False, universal=False):
        config = StoreConfig().small()
        # 1 KiB multipart parts and MANIFEST cap: a table or blob segment of a
        # few blocks uploads in parts, and a few flushes rewrite the MANIFEST.
        options = replace(
            config.options,
            write_buffer_size=1 << 10,
            block_size=256,
            target_file_size_base=1 << 10,
            max_bytes_for_level_base=4 << 10,
            max_manifest_file_size=1 << 10,
            compaction_style="universal" if universal else "leveled",
            scan_prefetch_depth=2 if prefetch else 0,
            blob_value_threshold=BLOB_THRESHOLD if blob else 0,
        )
        config = replace(
            config,
            options=options,
            placement=replace(config.placement, multipart_part_bytes=1 << 10),
            scan_readahead_bytes=(128 << 10) if readahead else 0,
        )
        if starved:
            config = replace(
                config,
                options=replace(options, block_cache_bytes=512),
                pcache=replace(config.pcache, data_budget_bytes=1 << 10),
                placement=replace(config.placement, cloud_level=1),
            )
        self.store = RocksMashStore.create(config)

    # -- writes -------------------------------------------------------------

    def _apply(self, writes):
        """The store acknowledged synced ``writes`` (key -> value, None for a
        delete): the model takes them, and a crash can no longer undo them."""
        for key, value in writes.items():
            self.candidates.pop(key, None)
            if value is None:
                self.model.pop(key, None)
            else:
                self.model[key] = value

    def _unsettled(self, writes):
        """``writes`` may or may not survive the next crash."""
        for key, value in writes.items():
            self.candidates.setdefault(key, [self.model.get(key)]).append(value)

    @staticmethod
    def _batch(ops):
        batch = WriteBatch()
        for key, value in ops:
            if value is None:
                batch.delete(key)
            else:
                batch.put(key, value)
        return batch

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.store.put(key, value)
        self._apply({key: value})

    @rule(key=keys, value=values)
    def put_unsynced(self, key, value):
        self.store.put(key, value, sync=False)
        self._unsettled({key: value})
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        self.store.delete(key)
        self._apply({key: None})

    @rule(ops=batch_ops)
    def write_batch(self, ops):
        self.store.write(self._batch(ops))
        self._apply(dict(ops))

    # -- reads ----------------------------------------------------------------

    def _view(self, data):
        """(snapshot, model) for a read: the live state, or a drawn snapshot's."""
        if self.snapshots and data.draw(st.booleans(), label="at a snapshot"):
            return data.draw(st.sampled_from(self.snapshots), label="snapshot")
        return None, self.model

    @rule(key=keys, data=st.data())
    def get(self, key, data):
        snapshot, model = self._view(data)
        assert self.store.get(key, snapshot=snapshot) == model.get(key)

    @rule(wanted=st.lists(keys, max_size=10), data=st.data())
    def multi_get(self, wanted, data):
        snapshot, model = self._view(data)
        got = self.store.multi_get(wanted, snapshot=snapshot)
        assert got == {key: model.get(key) for key in wanted}

    @rule(
        begin=bounds,
        end=bounds,
        limit=st.one_of(st.none(), st.integers(0, 5)),
        data=st.data(),
    )
    def scan(self, begin, end, limit, data):
        snapshot, model = self._view(data)
        expected = sorted(
            (key, value)
            for key, value in model.items()
            if (begin is None or key >= begin) and (end is None or key < end)
        )
        assert self.store.scan(begin, end, limit, snapshot=snapshot) == expected[:limit]

    # -- snapshots ------------------------------------------------------------

    @precondition(lambda self: len(self.snapshots) < 3)
    @rule()
    def take_snapshot(self):
        self.snapshots.append((self.store.snapshot(), dict(self.model)))

    @precondition(lambda self: self.snapshots)
    @rule(data=st.data())
    def release_snapshot(self, data):
        index = data.draw(st.integers(0, len(self.snapshots) - 1), label="snapshot")
        snapshot, _ = self.snapshots.pop(index)
        self.store.release_snapshot(snapshot)
        # A second release is refused and unpins nothing: the oracle still
        # finds every remaining snapshot's frozen copy.
        with pytest.raises(InvalidArgumentError):
            self.store.release_snapshot(snapshot)
        assert self.store.metrics()["snapshots"] == len(self.snapshots)

    # -- maintenance ------------------------------------------------------------

    def _check_clean(self, store=None):
        store = store or self.store
        report = check_db(store.env, store.config.db_prefix, store.config.options)
        assert report.ok, report.errors

    @rule()
    def flush(self):
        # Everything in the memtable is now in a table: durable.
        self.store.flush()
        self.candidates.clear()
        self._check_clean()

    @rule(begin=bounds, end=bounds)
    def compact_range(self, begin, end):
        if begin is not None and end is not None and begin > end:
            begin, end = end, begin
        self.store.compact_range(begin, end)
        self._check_clean()

    @rule(torn_tail_seed=torn_tail_seeds)
    def crash_and_reopen(self, torn_tail_seed=None):
        """Power fails (keeping a seeded byte prefix of each unsynced local
        tail, when drawn so). Every acknowledged synced write survives; each
        key an unsynced or interrupted write touched holds one of its
        candidates, read once, after which the model is exact again. The
        snapshots belonged to the instance that died."""
        self.store = self.store.reopen(crash=True, torn_tail_seed=torn_tail_seed)
        self.snapshots.clear()
        self.clone_blocks = dict.fromkeys(BLOCK_SOURCES, 0)
        settled = {key: self.store.get(key) for key in self.candidates}
        for key, got in settled.items():
            assert got in self.candidates[key], (key, got, self.candidates[key])
        self._apply(settled)
        self._check_clean()

    @rule(
        site=st.sampled_from(crash_points.sites()),
        skip=st.integers(0, 3),
        torn_tail_seed=torn_tail_seeds,
        ops=st.lists(write_ops, min_size=2, max_size=6),
        value=blob_values,
    )
    def crash_at_site(self, site, skip, torn_tail_seed=None, ops=MULTI_SHARD_OPS, value=b"v" * 300):
        """Die at the ``skip + 1``-th reach of ``site`` inside an op that can
        reach it, or after the op when it never gets there: a multi-shard
        ``write_batch`` for the xWAL, a diverted put for the blob log's
        append, ``create_checkpoint`` for a checkpoint, and a flush plus a
        full compaction for every other site (table, MANIFEST, demotion and
        blob-segment commits). Each key the interrupted write touched holds
        its old or its new value; an interrupted checkpoint is invisible."""
        family = site.partition(".")[0]
        writes = {}
        name = None
        try:
            with armed(site, skip=skip):
                if family == "xwal":
                    writes = dict(ops)
                    self.store.write(self._batch(ops))
                elif site == "bloblog.append":
                    writes = {ops[0][0]: value}
                    self.store.put(ops[0][0], value)
                elif family == "checkpoint":
                    name = f"cp{self.checkpoints}"
                    self.checkpoints += 1
                    create_checkpoint(self.store, name)
                else:
                    self.store.flush()
                    self.store.compact_range(None, None)
        except CrashPointFired:
            self._unsettled(writes)
        else:
            self._apply(writes)
        self.crash_and_reopen(torn_tail_seed)
        if name is not None and crash_points.fired == site:
            # The checkpoint's MANIFEST object is its commit point.
            assert name not in list_checkpoints(self.store.cloud_store)
            with pytest.raises(NotFoundError):
                restore_checkpoint(self.store.cloud_store, name, self.store.config)

    @rule(
        rate=st.sampled_from([0.3, 1.0]),
        seed=st.integers(0, 1 << 16),
        op=st.sampled_from(["write_batch", "flush", "compact_range"]),
        ops=batch_ops,
    )
    def cloud_fault_burst(self, rate, seed, op, ops):
        """One op under a burst of cloud request errors either returns or
        raises ``IOErrorSim``; each key a raised write touched holds its old
        or its new value. The tree then checks clean, and a flush with the
        faults gone succeeds."""
        writes = dict(ops) if op == "write_batch" else {}
        raised = False
        self.store.cloud_store.faults = FaultInjector(error_rate=rate, seed=seed)
        try:
            if op == "write_batch":
                self.store.write(self._batch(ops))
            elif op == "flush":
                self.store.flush()
            else:
                self.store.compact_range(None, None)
        except IOErrorSim:
            raised = True
        finally:
            self.store.cloud_store.faults = None
        if raised:
            # The WAL is local, so a write the live store shows is synced.
            for key, value in writes.items():
                got = self.store.get(key)
                assert got in (self.model.get(key), value), (key, got)
                if got == value:
                    self._apply({key: value})
        else:
            self._apply(writes)
        self._check_clean()
        self.flush()

    @precondition(lambda self: self.checkpoints < 2)
    @rule()
    def checkpoint(self):
        """Snapshot into the cloud, restore under a fresh prefix on the same
        devices: the clone holds exactly the model of this step."""
        n = self.checkpoints
        self.checkpoints += 1
        create_checkpoint(self.store, f"cp{n}")
        self._check_clean()
        config = replace(self.store.config, db_prefix=f"clone{n}/")
        clone = restore_checkpoint(self.store.cloud_store, f"cp{n}", config)
        try:
            rows = sorted(self.model.items())
            assert clone.scan() == rows
            for key in KEYS:
                assert clone.get(key) == self.model.get(key), key
            self._check_clean(clone)
        finally:
            clone.close()
        served = clone.metrics()
        for source in BLOCK_SOURCES:
            self.clone_blocks[source] += served[f"blocks.{source}"]

    # -- the oracle -----------------------------------------------------------

    @invariant()
    def store_equals_model(self):
        if self.store is None:
            return
        for snapshot, model in [(None, self.model), *self.snapshots]:
            rows = sorted(model.items())
            assert self.store.scan(snapshot=snapshot) == rows
            for key in KEYS:
                assert self.store.get(key, snapshot=snapshot) == model.get(key), key

    @invariant()
    def spans_conserve_time(self):
        """Every facade op since the last check — the step's and the oracle's
        own reads — attributes exactly its elapsed simulated time to tiers."""
        if self.store is None:
            return
        spans = self.store.tracer.spans
        for span in spans:
            assert span_conserved(span), (span.op, span.events, span.tiers, span.elapsed)
        assert self.store.tracer.dropped_spans == 0  # none escaped the check
        spans.clear()

    @invariant()
    def metrics_count_the_blocks_the_tracer_saw(self):
        """Each block source counts a block in ``metrics()`` and posts one
        tracer event for it; the primed buffer and the table's own readahead
        share the ``readahead_hit`` event."""
        if self.store is None:
            return
        metrics = self.store.metrics()
        served = {s: metrics[f"blocks.{s}"] + self.clone_blocks[s] for s in BLOCK_SOURCES}
        events = self.store.tracer.event_count
        assert served["dram"] == events("dram_hit")
        assert served["pcache"] == events("pcache_hit")
        assert served["primed"] + served["readahead"] == events("readahead_hit")

    def teardown(self):
        if self.store is not None:
            self.store.close()


TestStoreMachine = StoreMachine.TestCase


def test_pinned_key_cut_across_compaction_output_files():
    """Found by the machine on its first full runs. With a snapshot keeping two
    versions of ``key00`` alive, a compaction cut its output between them.
    Fence routing then offered ``get`` only the first of the two files
    (first case); and a ``compact_range`` that ended below ``key00`` took the
    file with the newer version down a level and left the older one above it,
    where live reads found it first (second case)."""
    big = b"v" * 300
    cases = [
        ([(b"a", None), (b"a", None), (b"a", big), (b"a", big), (b"key00", big), (b"a", big)], None),
        ([(b"a", None), (b"a", big), (b"a", big), (b"a", None), (b"a\x00", None), (b"key00", big)], b"a"),
    ]
    for ops, end in cases:
        state = StoreMachine()
        state.open_store(blob=False)
        state.put(key=b"key00", value=b"")
        state.take_snapshot()
        state.write_batch(ops=ops)
        state.compact_range(begin=None, end=end)
        (level,) = (files for files in state.store.db.versions.current.files if files)
        assert [meta.smallest_user_key for meta in level].count(b"key00") == 1
        assert [meta.largest_user_key for meta in level].count(b"key00") == 2
        state.store_equals_model()
        state.teardown()


def test_recovery_drops_the_pinned_metadata_of_the_tables_it_purges():
    """Found by the machine's long profile. A crash after a compaction wrote
    its outputs but before the MANIFEST took them orphans two tables whose
    footer, index and filter the store had already pinned in the persistent
    cache. Recovery purged the files before the store had wired its delete
    hook, so the pinned entries outlived them; the next recovery handed out
    the same file number again, and the new table opened with the orphan's
    footer and index — block handles into the wrong bytes, a checksum
    mismatch on the next compaction."""
    big = b"v" * 300
    state = StoreMachine()
    state.open_store(blob=False, starved=False, readahead=False)
    state.write_batch(ops=[(b"b", big)])
    state.write_batch(ops=[(b"key05", big)])
    state.write_batch(ops=[(b"a", big), (b"a\x00", None), (b"aa", big), (b"a\x00", big)])
    state.crash_at_site(site="compaction.after_outputs", skip=2)
    state.crash_and_reopen()
    state.compact_range(begin=None, end=None)
    state.store_equals_model()
    state.teardown()


def test_universal_manual_compaction_strands_no_run_in_a_middle_level():
    """Found by the machine's universal axis on its first runs.
    ``compact_range`` pushed a universal tree down one level at a time, as it
    does a leveled one, and a crash after the first step left a run on L1,
    which the universal picker never reads. The picker's next full merge put
    newer runs under it on the bottom level and dropped the tombstone that
    shadowed it, so a deleted key came back."""
    big = b"v" * 300
    state = StoreMachine()
    state.open_store(blob=False, universal=True)
    state.put(key=b"key10", value=big)
    state.put(key=b"a", value=big)
    state.crash_at_site(site="compaction.after_outputs", skip=1)
    state.delete(key=b"key10")
    for _ in range(4):  # enough runs for the picker's next full merge
        state.put(key=b"b", value=big)
        state.flush()
    assert not any(state.store.db.versions.current.files[1:-1])
    state.store_equals_model()
    state.teardown()


def test_a_flush_retries_the_blob_seal_a_cloud_error_interrupted():
    """Found by the machine's cloud-fault rule on its first runs. A flush
    whose blob-segment upload failed had already let go of the segment, so
    the next flush sealed nothing and wrote a table whose pointers led into a
    segment the MANIFEST never recorded — dangling, and deleted as an orphan
    by the next recovery."""
    state = StoreMachine()
    state.open_store(blob=True)
    state.put(key=b"a", value=b"v" * 300)
    state.cloud_fault_burst(rate=1.0, seed=0, op="flush", ops=[(b"a", None)])
    state.crash_and_reopen()
    state.store_equals_model()
    state.teardown()


def check_site_fires_and_recovers(site, universal):
    """Drive a store with the blob log on and starved caches through one
    fixed rule sequence that ends in ``crash_at_site(site)``, and check that
    the site fired and the reopened store equals the model."""
    big = b"v" * 300
    state = StoreMachine()
    state.open_store(blob=True, starved=True, universal=universal)
    # Sixteen flushes leave the MANIFEST just under its 1 KiB cap: the armed
    # flush and compaction rewrite it.
    for i in range(16):
        state.put(key=b"b", value=b"%d" % i)
        state.flush()
    # A segment whose only record the armed compaction drops: GC deletes it.
    state.put(key=b"a", value=big)
    state.flush()
    state.put(key=b"a", value=big)
    # Three versions of every key, two of them pinned by snapshots: the
    # compaction outputs outgrow one 1 KiB part and are demoted in parts.
    state.take_snapshot()
    for r in range(3):
        state.write_batch(ops=[(key, b"%d" % r) for key in KEYS])
        if r < 2:
            state.take_snapshot()
    # Over a part's worth of blob records: the armed flush seals them in parts.
    for key in (b"aa", b"ab", b"b", b"ba"):
        state.put(key=key, value=big)
    state.crash_at_site(site=site, skip=0)
    assert crash_points.fired == site, f"{site} was never reached"
    state.store_equals_model()
    state.spans_conserve_time()
    state.metrics_count_the_blocks_the_tracer_saw()
    state.teardown()


@pytest.mark.parametrize("universal", [False, True], ids=["leveled", "universal"])
@pytest.mark.parametrize("site", crash_points.sites())
def test_every_registered_site_fires_and_recovers(site, universal):
    check_site_fires_and_recovers(site, universal)


def test_the_site_check_catches_a_recovery_that_loses_a_write(monkeypatch):
    """The harness can fail: when xWAL replay drops the last op it read, a
    crash at ``flush.before_manifest`` (whose memtable only the log still
    holds) loses a write, and the site check says so."""
    replay = XWalReplayer.replay

    def lossy_replay(self, number):
        yield from list(replay(self, number))[:-1]

    monkeypatch.setattr(XWalReplayer, "replay", lossy_replay)
    with pytest.raises(AssertionError):
        check_site_fires_and_recovers("flush.before_manifest", universal=False)
