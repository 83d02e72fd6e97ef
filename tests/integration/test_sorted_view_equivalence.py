"""Sorted-view equivalence: reads through the global sorted view must be
byte-for-byte identical to the merging-iterator baseline.

Three layers of proof:

* a hypothesis twin-DB drive — the same random op stream (puts, deletes,
  flushes, manual compactions, reopens) applied to a view-on DB and a
  view-off DB, with every scan / reverse scan / bounded scan / point get
  compared;
* the same twin drive on whole :class:`RocksMashStore` deployments under a
  cloud fault storm (every request can fail transiently and be retried);
* the view's lifecycle — it is derived state, rebuilt when the store opens:
  a crash right after a flush or compaction commits reopens with a usable
  view that serves the committed data at once; and a version change no
  rebuild followed (a blob-GC edit) sends scans down the merging iterator
  until the next flush.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lsm.check import check_db
from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.mash.store import RocksMashStore, StoreConfig
from repro.sim.clock import SimClock
from repro.sim.failure import CrashPointFired, armed
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice

small_keys = st.binary(min_size=1, max_size=8)
small_values = st.binary(min_size=0, max_size=40)

view_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), small_keys, small_values),
        st.tuples(st.just("del"), small_keys, st.just(b"")),
        st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
        st.tuples(st.just("compact"), st.just(b""), st.just(b"")),
        st.tuples(st.just("reopen"), st.just(b""), st.just(b"")),
    ),
    max_size=60,
)


def tiny_options(**kw) -> Options:
    defaults = dict(
        write_buffer_size=1 << 10,
        block_size=256,
        max_bytes_for_level_base=4 << 10,
        target_file_size_base=1 << 10,
        block_cache_bytes=0,
    )
    defaults.update(kw)
    return Options(**defaults)


def compare_all_reads(viewed: DB, baseline: DB, keys):
    """Every read surface must agree byte-for-byte."""
    assert list(viewed.scan()) == list(baseline.scan())
    assert list(viewed.scan_reverse()) == list(baseline.scan_reverse())
    for k in keys:
        assert viewed.get(k) == baseline.get(k)
    bounds = sorted(keys)[:: max(1, len(keys) // 3)]
    for begin in bounds:
        for end in bounds:
            assert list(viewed.scan(begin, end)) == list(baseline.scan(begin, end))
            assert list(viewed.scan_reverse(begin, end)) == list(
                baseline.scan_reverse(begin, end)
            )


class TestTwinDBEquivalence:
    @given(view_ops)
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_view_reads_match_merging_iterator(self, ops):
        env_v = LocalEnv(LocalDevice(SimClock()))
        env_b = LocalEnv(LocalDevice(SimClock()))
        viewed = DB.open(env_v, "db/", tiny_options(sorted_view=True))
        baseline = DB.open(env_b, "db/", tiny_options())
        try:
            for kind, k, v in ops:
                if kind == "put":
                    viewed.put(k, v)
                    baseline.put(k, v)
                elif kind == "del":
                    viewed.delete(k)
                    baseline.delete(k)
                elif kind == "flush":
                    viewed.flush()
                    baseline.flush()
                elif kind == "compact":
                    viewed.compact_range()
                    baseline.compact_range()
                else:
                    # Reopening rebuilds the view from the tables' index
                    # blocks, so the reads after it go through the view.
                    viewed.close()
                    baseline.close()
                    viewed = DB.open(env_v, "db/", tiny_options(sorted_view=True))
                    baseline = DB.open(env_b, "db/", tiny_options())
            keys = sorted({k for _, k, _ in ops if k}) or [b"probe"]
            compare_all_reads(viewed, baseline, keys)
            # Force the view current, then prove equivalence again with the
            # view guaranteed on the serving path.
            viewed.put(b"\x00seal", b"s")
            baseline.put(b"\x00seal", b"s")
            viewed.flush()
            baseline.flush()
            metrics = viewed.metrics()
            assert metrics["view.usable"] == 1
            compare_all_reads(viewed, baseline, keys)
            assert viewed.metrics()["view.scan_hits"] > metrics["view.scan_hits"]
        finally:
            viewed.close()
            baseline.close()


def storm_config(*, sorted_view: bool, seed: int) -> StoreConfig:
    cfg = StoreConfig().small()
    return replace(
        cfg,
        options=replace(cfg.options, sorted_view=sorted_view),
        cloud_error_rate=0.05,
        cloud_fault_seed=seed,
    )


class TestFaultStormEquivalence:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_store_reads_identical_under_cloud_faults(self, seed):
        """Transient cloud failures are retried on both paths; the view must
        not change a single served byte even though its GET pattern (and so
        its fault pattern) differs from the baseline's."""
        stores = {
            on: RocksMashStore.create(storm_config(sorted_view=on, seed=seed))
            for on in (True, False)
        }
        for step in range(400):
            k = b"key%04d" % (step * 7 % 90)
            for store in stores.values():
                if step % 11 == 3:
                    store.delete(k)
                else:
                    store.put(k, b"v%d" % step)
        for store in stores.values():
            store.flush()

        def all_reads(store):
            gets = [store.get(b"key%04d" % i) for i in range(0, 90, 3)]
            return (
                store.scan(),
                store.scan_reverse(),
                store.scan(b"key0010", b"key0060"),
                store.scan_reverse(b"key0010", b"key0060"),
                gets,
            )

        assert all_reads(stores[True]) == all_reads(stores[False])
        assert stores[True].db.metrics()["view.usable"] == 1
        # Clean restart: the view is rebuilt at open and still agrees.
        reopened = {on: store.reopen() for on, store in stores.items()}
        assert reopened[True].db.metrics()["view.usable"] == 1
        assert all_reads(reopened[True]) == all_reads(reopened[False])
        for store in reopened.values():
            store.close()


class TestPointLookupsIgnoreTheView:
    @pytest.mark.parametrize("cloud_level", [1, 2])
    def test_get_same_values_bloom_tallies_and_events(self, cloud_level):
        """The view serves seeks and scans; a ``get`` routes by the version's
        fences either way, so a view-enabled store probes the same filters and
        reads the same blocks from the same sources as its view-less twin."""

        def twin(sorted_view):
            cfg = StoreConfig().small()
            store = RocksMashStore.create(
                replace(
                    cfg,
                    options=replace(cfg.options, sorted_view=sorted_view),
                    placement=replace(cfg.placement, cloud_level=cloud_level),
                )
            )
            for step in range(600):
                k = b"key%04d" % (step * 7 % 150)
                if step % 11 == 3:
                    store.delete(k)
                else:
                    store.put(k, b"v%d" % step * 8)
            store.flush()
            return store

        viewed, plain = twin(True), twin(False)
        assert viewed.db.metrics()["view.usable"] == 1
        for i in range(0, 200, 3):  # stored, deleted and never-written keys
            key = b"key%04d" % i
            assert viewed.get(key) == plain.get(key)
            span_v, span_p = viewed.tracer.spans[-1], plain.tracer.spans[-1]
            assert span_v.op == span_p.op == "get"
            assert span_v.events == span_p.events, key
        assert viewed.db.bloom_stats == plain.db.bloom_stats
        assert viewed.db.bloom_stats["bloom_checked"] > 0
        assert viewed.db.block_path.hits == plain.db.block_path.hits


def scan_counts(store):
    metrics = store.db.metrics()
    return metrics["view.scan_hits"], metrics["view.scan_fallbacks"]


class TestStaleViewFallback:
    """A view built for an older version never serves a scan. The window
    between a version commit and its view refresh closes at the next open,
    which rebuilds the view; a version change no refresh follows sends
    scans down the merging iterator until the next flush."""

    @pytest.mark.parametrize(
        "site", ["flush.after_manifest", "compaction.before_input_delete"]
    )
    def test_crash_in_view_commit_window_reopens_with_a_rebuilt_view(self, site):
        """A crash after a flush or compaction commits but before its view
        refresh: the reopened store rebuilds the view before its first read,
        and that read goes through it."""
        cfg = replace(storm_config(sorted_view=True, seed=0), cloud_error_rate=0.0)
        store = RocksMashStore.create(cfg)
        model = {}
        for i in range(40):
            k, v = b"key%03d" % i, b"val%03d" % i
            model[k] = v
            store.put(k, v)
        store.flush()
        with pytest.raises(CrashPointFired), armed(site):
            for i in range(40, 60):
                k, v = b"key%03d" % i, b"new%03d" % i
                # The WAL append commits before the flush that reaches the
                # crash site, so an in-flight put still survives the crash.
                model[k] = v
                store.put(k, v)
            store.flush()
            store.compact_range(None, None)

        store = store.reopen(crash=True)
        assert store.db.metrics()["view.usable"] == 1
        assert scan_counts(store) == (0, 0)
        assert dict(store.scan()) == model
        assert scan_counts(store) == (1, 0)
        assert store.scan_reverse() == sorted(model.items(), reverse=True)
        report = check_db(store.env, store.config.db_prefix, store.config.options)
        assert report.errors == [] and report.warnings == []
        store.close()

    def test_blob_gc_edit_sends_scans_to_the_merging_iterator(self):
        """A blob-GC edit makes a new version no view refresh follows: scans
        fall back to the merging iterator, serve the same rows, and the next
        flush makes the view usable again."""
        cfg = StoreConfig().small()
        cfg = replace(
            cfg,
            options=replace(
                cfg.options,
                sorted_view=True,
                blob_value_threshold=64,
                blob_segment_bytes=1 << 10,
            ),
        )
        store = RocksMashStore.create(cfg)
        model = {}
        for round_ in range(2):
            for i in range(60):
                model[b"key%03d" % i] = b"v%d-%03d" % (round_, i) + b"x" * 150
                store.put(b"key%03d" % i, model[b"key%03d" % i])
            store.flush()
        # The compaction drops the first round's pointers, so the GC pass
        # after it deletes their segments in MANIFEST edits of its own.
        store.compact_range(None, None)
        assert store.db.blob_store.stats()["segments_deleted"] > 0
        assert store.db.metrics()["view.usable"] == 0

        hits, fallbacks = scan_counts(store)
        assert dict(store.scan()) == model
        assert store.scan_reverse() == sorted(model.items(), reverse=True)
        assert scan_counts(store) == (hits, fallbacks + 2)

        model[b"key999"] = b"heal"
        store.put(b"key999", b"heal")
        store.flush()
        assert store.db.metrics()["view.usable"] == 1
        assert dict(store.scan()) == model
        assert scan_counts(store) == (hits + 1, fallbacks + 2)
        store.close()
