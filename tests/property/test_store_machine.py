"""Stateful oracle over the store facade (the first slice of ROADMAP item 1).

One hypothesis ``RuleBasedStateMachine`` drives a :class:`RocksMashStore`
through its facade — put / delete / write-batch / get / multi_get / scan
(both directions, ``limit``, optional snapshot) / take and release snapshot
(a second release is refused) / flush / ``compact_range`` /
``reopen(crash=True)`` / a crash armed at a flush or compaction site — with
the configuration drawn once per run from {blob separation on, off} ×
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

The tree is tiny (1 KiB memtable, 256 B blocks, 1 KiB files) and the keys are
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

Still open under item 1: cloud faults, and the shard axis.

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

from repro.errors import InvalidArgumentError
from repro.lsm.block_cache import BLOCK_SOURCES
from repro.lsm.check import check_db
from repro.lsm.write_batch import WriteBatch
from repro.mash.checkpoint import create_checkpoint, restore_checkpoint
from repro.mash.store import RocksMashStore, StoreConfig
from repro.obs.trace import span_conserved
from repro.sim.failure import CrashPointFired, armed

# Prefix-related and adjacent keys: seeks land between a key and its
# extension, and one key's versions share blocks with its neighbours'.
KEYS = [b"a", b"a\x00", b"aa", b"ab", b"ab\x00", b"b", b"b\xff", b"ba"] + [
    b"key%02d" % i for i in range(12)
]
keys = st.sampled_from(KEYS)
# Either side of the blob threshold below, and of a block.
values = st.one_of(st.binary(max_size=6), st.binary(min_size=12, max_size=40), st.just(b"v" * 300))
bounds = st.one_of(st.none(), keys, st.sampled_from([b"", b"a\x01", b"c", b"key05\x00", b"z"]))

BLOB_THRESHOLD = 8

# Where a table is half written, written but not yet in the MANIFEST, or in it
# with its inputs still on disk.
CRASH_SITES = [
    "flush.before_manifest",
    "flush.after_manifest",
    "compaction.mid_output",
    "compaction.after_outputs",
    "compaction.before_input_delete",
]


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = None
        self.model = {}
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
        options = replace(
            config.options,
            write_buffer_size=1 << 10,
            block_size=256,
            target_file_size_base=1 << 10,
            max_bytes_for_level_base=4 << 10,
            compaction_style="universal" if universal else "leveled",
            scan_prefetch_depth=2 if prefetch else 0,
            blob_value_threshold=BLOB_THRESHOLD if blob else 0,
        )
        config = replace(
            config, options=options, scan_readahead_bytes=(128 << 10) if readahead else 0
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

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.store.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @rule(ops=st.lists(st.tuples(keys, st.one_of(st.none(), values)), min_size=1, max_size=6))
    def write_batch(self, ops):
        batch = WriteBatch()
        for key, value in ops:
            if value is None:
                batch.delete(key)
                self.model.pop(key, None)
            else:
                batch.put(key, value)
                self.model[key] = value
        self.store.write(batch)

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
        reverse=st.booleans(),
        data=st.data(),
    )
    def scan(self, begin, end, limit, reverse, data):
        snapshot, model = self._view(data)
        expected = sorted(
            (
                (key, value)
                for key, value in model.items()
                if (begin is None or key >= begin) and (end is None or key < end)
            ),
            reverse=reverse,
        )
        got = self.store.scan(begin, end, limit, snapshot=snapshot, reverse=reverse)
        assert got == expected[:limit]

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
        self.store.flush()
        self._check_clean()

    @rule(begin=bounds, end=bounds)
    def compact_range(self, begin, end):
        if begin is not None and end is not None and begin > end:
            begin, end = end, begin
        self.store.compact_range(begin, end)
        self._check_clean()

    @rule()
    def crash_and_reopen(self):
        # Facade writes are synced, so every acknowledged one survives; the
        # snapshots belonged to the instance that died.
        self.store = self.store.reopen(crash=True)
        self.snapshots.clear()
        self.clone_blocks = dict.fromkeys(BLOCK_SOURCES, 0)
        self._check_clean()

    @rule(site=st.sampled_from(CRASH_SITES), skip=st.integers(0, 3))
    def crash_at_site(self, site, skip):
        """Die at the ``skip + 1``-th reach of ``site`` inside a flush and a
        full compaction (or after them, when they never get there); recovery
        finds every acknowledged write and leaves a clean tree."""
        try:
            with armed(site, skip=skip):
                self.store.flush()
                self.store.compact_range(None, None)
        except CrashPointFired:
            pass
        self.crash_and_reopen()

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
            assert clone.scan(reverse=True) == rows[::-1]
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
            assert self.store.scan(snapshot=snapshot, reverse=True) == rows[::-1]
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
