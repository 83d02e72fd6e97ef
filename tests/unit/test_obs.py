"""Unit tests for the tier-attributed tracer and metrics export."""

import pytest

from repro.lsm.options import NUM_LEVELS
from repro.obs.prom import render_prometheus
from repro.obs.trace import (
    TierTimes,
    Tracer,
    TraceSpan,
    span_conserved,
    summarize_spans,
)
from repro.metrics.counters import CounterSet
from repro.metrics.latency import LatencyHistogram
from repro.sim.clock import ForkJoinRegion, SimClock
from repro.storage.cloud import CloudObjectStore
from repro.storage.local import LocalDevice


def charged(tracer, tier, seconds):
    """A device charge site: advance the tracer's clock by ``seconds`` spent
    on ``tier``, with the tracer attached to it."""
    tracer.clock.tracer = tracer
    tracer.clock.advance(seconds, tier)


class TestTierTimes:
    def test_add_and_total(self):
        tracer = Tracer(SimClock())
        charged(tracer, "local", 1.0)
        charged(tracer, "cloud", 2.0)
        charged(tracer, "cpu", 0.5)
        t = tracer.totals
        assert t.total() == pytest.approx(3.5)
        assert t.as_dict() == {"local": 1.0, "cloud": 2.0, "cpu": 0.5}

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            charged(Tracer(SimClock()), "tape", 1.0)

    def test_merge_scaled(self):
        a, b = TierTimes(local=1.0), TierTimes(local=2.0, cloud=4.0)
        a.merge(b, scale=0.5)
        assert a.local == pytest.approx(2.0)
        assert a.cloud == pytest.approx(2.0)


class TestSpans:
    def test_simple_span_conserves(self):
        tracer = Tracer(SimClock())
        with tracer.span("get") as span:
            charged(tracer, "local", 0.001)
            charged(tracer, "cloud", 0.015)
        assert span.elapsed == pytest.approx(0.016)
        assert span.tiers.local == pytest.approx(0.001)
        assert span.tiers.cloud == pytest.approx(0.015)
        assert span_conserved(span)

    def test_nesting_parent_child_links(self):
        tracer = Tracer(SimClock())
        with tracer.span("outer") as outer:
            charged(tracer, "local", 0.001)
            with tracer.span("inner") as inner:
                charged(tracer, "cloud", 0.015)
        assert inner.parent_id == outer.span_id
        assert inner.depth == outer.depth + 1
        assert outer.parent_id == 0
        # Child time is part of the parent's elapsed time too.
        assert outer.tiers.total() == pytest.approx(0.016)
        assert span_conserved(outer)
        assert span_conserved(inner)
        # The ring holds inner (closed first) then outer.
        assert [s.op for s in tracer.spans] == ["inner", "outer"]

    def test_charges_outside_spans_are_unattributed(self):
        tracer = Tracer(SimClock())
        charged(tracer, "local", 0.25)
        assert tracer.unattributed.local == pytest.approx(0.25)
        assert tracer.totals.local == pytest.approx(0.25)
        assert len(tracer.spans) == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Tracer(SimClock()).charge("local", -1.0)

    def test_events_and_cloud_ops_recorded(self):
        tracer = Tracer(SimClock())
        with tracer.span("get") as span:
            tracer.event("pcache_hit")
            tracer.count_cloud_op()
        assert span.events == ["pcache_hit"]
        assert span.cloud_ops == 1
        assert tracer.event_counts == {"pcache_hit": 1}
        assert tracer.total_cloud_ops == 1

    def test_ring_truncation_counts_drops(self):
        tracer = Tracer(SimClock(), capacity=4)
        for i in range(10):
            with tracer.span(f"op{i}"):
                pass
        assert len(tracer.spans) == 4
        assert tracer.dropped_spans == 6
        assert [s.op for s in tracer.spans] == ["op6", "op7", "op8", "op9"]


class TestForkJoinAttribution:
    def test_critical_path_attribution_conserves(self):
        clock = SimClock()
        device = LocalDevice(clock)
        cloud = CloudObjectStore(clock)
        tracer = clock.tracer = Tracer(clock)
        cloud.put("obj", b"x" * 1000)
        tracer = clock.tracer = Tracer(clock)  # fresh tracer: ignore setup charges
        device.create("f")
        device.append("f", b"y" * 1000)
        with tracer.span("mixed") as span:
            region = ForkJoinRegion(clock)
            with region.branch():
                cloud.get("obj")  # slow branch: one RTT + transfer
            with region.branch():
                device.sync("f")  # fast branch, hidden behind the cloud
            region.join()
        assert span_conserved(span)
        # The region's wall time came from the cloud branch.
        assert span.tiers.cloud == pytest.approx(span.elapsed)
        assert span.cloud_ops == 1

    def test_fully_overlapped_region_attributes_nothing(self):
        clock = SimClock()
        tracer = Tracer(clock)

        clock.advance(10.0, "cpu")
        clock.tracer = tracer
        with tracer.span("op") as span:
            region = ForkJoinRegion(clock)
            with region.branch(start=1.0):  # back-dated, ends in the past
                charged(tracer, "cloud", 2.0)
            region.join(strict=False)
        assert span.elapsed == pytest.approx(0.0)
        assert span.tiers.total() == pytest.approx(0.0)
        assert span_conserved(span)
        # The request still happened even though its latency was hidden.
        assert tracer.totals.cloud == pytest.approx(2.0)

    def test_unchanged_branch_falls_back_to_cpu(self):
        clock = SimClock()
        tracer = clock.tracer = Tracer(clock)

        with tracer.span("op") as span:
            region = ForkJoinRegion(clock)
            with region.branch() as child:
                child.now += 0.5  # queueing delay, no device charge
            region.join()
        assert span.tiers.cpu == pytest.approx(0.5)
        assert span_conserved(span)


class TestExport:
    def test_jsonl_round_trip(self):
        tracer = Tracer(SimClock())
        with tracer.span("get"):
            charged(tracer, "cloud", 0.015)
            tracer.event("cloud_get")
            tracer.count_cloud_op()
        with tracer.span("put"):
            charged(tracer, "local", 0.001)
        text = tracer.export_jsonl()
        assert len(text.splitlines()) == 2
        spans = Tracer.spans_from_jsonl(text)
        assert [s.op for s in spans] == ["get", "put"]
        assert spans[0].cloud_ops == 1
        assert spans[0].events == ["cloud_get"]
        assert spans[0].tiers.cloud == pytest.approx(0.015)
        assert all(span_conserved(s) for s in spans)

    def test_from_dict_inverse_of_to_dict(self):
        span = TraceSpan(
            op="scan",
            span_id=7,
            parent_id=3,
            depth=1,
            start=1.0,
            end=2.5,
            tiers=TierTimes(local=0.5, cloud=1.0),
            cloud_ops=2,
            events=["readahead_hit"],
        )
        assert TraceSpan.from_dict(span.to_dict()) == span

    def test_summarize_empty(self):
        summary = summarize_spans([])
        assert summary["spans"] == 0
        assert summary["conserved"] is True

    def test_summarize_means(self):
        tracer = Tracer(SimClock())
        for _ in range(2):
            with tracer.span("get"):
                charged(tracer, "cloud", 0.010)
                tracer.count_cloud_op()
        summary = summarize_spans(tracer.spans)
        assert summary["spans"] == 2
        assert summary["cloud_s"] == pytest.approx(0.010)
        assert summary["cloud_ops"] == pytest.approx(1.0)
        assert summary["conserved"] is True


class TestPrometheusRender:
    def test_counters_and_tracer_sections(self):
        counters = CounterSet()
        counters.inc("cloud.get_ops", 3)
        hist = LatencyHistogram()
        hist.record(0.01)
        tracer = Tracer(SimClock())
        with tracer.span("get"):
            charged(tracer, "cloud", 0.015)
            tracer.event("cloud_get")
            tracer.count_cloud_op()
        text = render_prometheus(
            counters=counters,
            histograms={"read_latency_seconds": hist},
            tracer=tracer,
        )
        assert "repro_cloud_get_ops_total 3" in text
        assert 'repro_read_latency_seconds{quantile="0.5"}' in text
        assert "repro_read_latency_seconds_count 1" in text
        assert 'repro_tier_busy_seconds_total{tier="cloud"} 0.015' in text
        assert "repro_cloud_requests_total 1" in text
        assert 'repro_trace_events_total{event="cloud_get"} 1' in text
        assert text.endswith("\n")

    def test_metric_names_sanitized(self):
        counters = CounterSet()
        counters.inc("local.read-bytes", 1)
        text = render_prometheus(counters=counters)
        assert "repro_local_read_bytes_total 1" in text

    def test_empty_render(self):
        assert render_prometheus() == "\n" or render_prometheus() == ""

    def test_gauges_render_one_line_each_in_order(self):
        text = render_prometheus(gauges={"level.0.files": 3, "sim.local": 0.5})
        assert text == (
            "# TYPE repro_level_0_files gauge\nrepro_level_0_files 3\n"
            "# TYPE repro_sim_local gauge\nrepro_sim_local 0.5\n"
        )


class TestStoreSurfaces:
    def make_store(self, **options):
        from dataclasses import replace

        from repro.mash.store import RocksMashStore, StoreConfig

        config = StoreConfig().small()
        return RocksMashStore.create(replace(config, options=replace(config.options, **options)))

    def test_dump_metrics_exposition(self):
        store = self.make_store()
        for i in range(50):
            store.put(b"key%03d" % i, b"v" * 64)
        store.flush()
        store.get(b"key001")
        text = store.dump_metrics()
        assert "# TYPE repro_local_sync_ops_total counter" in text
        assert 'repro_read_latency_seconds{quantile="0.99"}' in text
        assert "repro_write_latency_seconds_count" in text
        assert 'repro_tier_busy_seconds_total{tier="local"}' in text
        assert "repro_trace_spans" in text
        # Every other number of metrics() is a gauge: compaction, bloom,
        # levels and the persistent cache among them.
        metrics = store.metrics()
        for name in (
            "compaction.compactions",
            "bloom_checked",
            "level.0.files",
            "sst.bytes",
            "pcache.data_hits",
            "prewarmed_blocks",
        ):
            metric = "repro_" + name.replace(".", "_")
            assert f"# TYPE {metric} gauge\n{metric} {metrics[name]}\n" in text
        # Counters and the tracer's totals render as counters only, once.
        assert "repro_local_sync_ops\n" not in text and "repro_event_" not in text
        assert "repro_sim_" not in text

    def test_facade_spans_attribute_device_time(self):
        store = self.make_store()
        store.put(b"k", b"v")
        span = store.tracer.spans[-1]
        assert span.op == "put"
        assert span.tiers.local > 0  # WAL sync hit the local device
        assert span_conserved(span)

    def test_engine_numbers_in_metrics_and_exposition(self):
        store = self.make_store()
        for i in range(50):
            store.put(b"key%03d" % i, b"v" * 64)
        store.flush()
        for _ in range(2):
            for i in range(0, 50, 7):
                assert store.get(b"key%03d" % i) == b"v" * 64
            assert len(list(store.scan(b"key010", b"key030"))) == 20
        metrics = store.db.metrics()
        assert metrics["last_sequence"] == 50 and metrics["flushes"] >= 1
        assert metrics["block_cache.hits"] == store.db.block_cache.hits
        # One DRAM hit, one count: the stack's dram source raises both.
        assert metrics["block_cache.hits"] == metrics["blocks.dram"] > 0
        assert sum(metrics[f"level.{n}.files"] for n in range(NUM_LEVELS)) >= 1
        text = store.dump_metrics()
        for name in ("last_sequence", "flushes", "compaction.compactions", "level.0.bytes"):
            assert f"repro_{name.replace('.', '_')} {metrics[name]}\n" in text

    def test_every_benchmark_observation_is_a_metric_of_the_same_value(self):
        """``benchmarks/perf`` builds its observation by hand from the
        attributes under ``metrics()``; one spelling means reading
        ``metrics()`` instead is a pure swap."""
        from benchmarks.perf.runner import observe

        store = self.make_store()
        for i in range(300):
            store.put(b"key%03d" % i, b"v" * 64, sync=False)
        for i in range(0, 300, 7):
            store.get(b"key%03d" % i)
        store.flush()
        seen, metrics = observe(store), store.metrics()
        assert seen and {name: metrics.get(name) for name in seen} == seen

    @pytest.mark.parametrize("options", [{}, {"blob_value_threshold": 32}])
    def test_engine_metric_names_do_not_come_and_go(self, options):
        """Counter and event names appear on first use; an engine name is
        there from open to close, in the same order."""
        store = self.make_store(**options)
        names = list(store.db.metrics())
        for i in range(200):
            store.put(b"key%03d" % i, b"v" * 64, sync=False)
        assert list(store.db.metrics()) == names
        store.flush()
        assert list(store.db.metrics()) == names
        store.compact_range(None, None)
        assert list(store.db.metrics()) == names
        store = store.reopen()
        assert list(store.db.metrics()) == names
        assert store.get(b"key007") == b"v" * 64

    def test_recovery_span_recorded(self):
        store = self.make_store()
        store.put(b"k", b"v")
        store = store.reopen(crash=True)
        recovery = [s for s in store.tracer.spans if s.op == "recovery"]
        assert len(recovery) == 1
        assert span_conserved(recovery[0])

    def test_block_sources_are_spelled_one_way_on_every_surface(self):
        from repro.lsm.block_cache import BLOCK_SOURCES

        store = self.make_store()
        for i in range(400):
            store.put(b"key%03d" % i, b"v" * 64, sync=False)
        store.flush()
        for i in range(0, 400, 9):
            store.get(b"key%03d" % i)
            store.get(b"key%03d" % i)
        hits = store.db.block_path.hits
        assert tuple(hits) == BLOCK_SOURCES and hits["dram"] > 0 and hits["demand"] > 0
        metrics = store.metrics()
        blocks = [name for name in metrics if name.startswith("blocks.")]
        assert blocks == [f"blocks.{source}" for source in BLOCK_SOURCES]
        assert [metrics[name] for name in blocks] == list(hits.values())
        text = store.dump_metrics()
        for source in BLOCK_SOURCES:
            assert f"# TYPE repro_blocks_{source} gauge\nrepro_blocks_{source} {hits[source]}\n" in text
        # ... and the tracer's per-event counts say the same, event by event.
        events = store.tracer.event_count
        assert hits["dram"] == events("dram_hit")
        assert hits["pcache"] == events("pcache_hit")
        assert hits["primed"] + hits["readahead"] == events("readahead_hit")


class TestExplain:
    """``StoreFacade.explain``: one get, as the ordered layers it visited."""

    COLD = [("dram", "miss"), ("pcache", "miss"), ("primed", "miss"), ("readahead", "miss")]

    def make_store(self):
        from dataclasses import replace

        from repro.mash.store import RocksMashStore, StoreConfig

        config = StoreConfig().small()  # one 512 B block fits the DRAM cache, two do not
        store = RocksMashStore.create(
            replace(config, options=replace(config.options, block_cache_bytes=600))
        )
        for i in range(2000):
            store.put(b"key%04d" % i, b"v" * 64, sync=False)
        store.flush()
        return store

    def test_cold_then_dram_warm_then_pcache_warm(self):
        store = self.make_store()
        assert store.cloud_bytes() > 0
        key = b"key0500"  # on the deepest, cloud-resident level, its table not yet open

        cold = store.explain(key)
        assert cold.value == b"v" * 64
        opened = ["pcache_footer_hit", "pcache_meta_hit", "pcache_meta_hit"]  # footer, index, filter
        assert cold.path == [
            ("memtable", "miss"),
            *[("open", event) for event in opened],
            ("bloom", "pass"),
            *self.COLD,
            ("cloud", "read"),
        ]
        assert cold.cloud_s > 0 and cold.bytes_fetched > 500
        span = store.tracer.spans[-1]
        assert (span.op, span.events) == ("get", [*opened, "bloom_checked", "cloud_get"])
        assert (cold.local_s, cold.cloud_s, cold.cpu_s) == (
            span.tiers.local, span.tiers.cloud, span.tiers.cpu
        )  # fmt: skip

        dram_warm = store.explain(key)
        assert dram_warm.path == [("memtable", "miss"), ("bloom", "pass"), ("dram", "hit")]
        assert (dram_warm.local_s, dram_warm.cloud_s, dram_warm.bytes_fetched) == (0.0, 0.0, 0)

        assert store.get(b"key1999") is not None  # another block takes the DRAM cache
        pcache_warm = store.explain(key)
        assert pcache_warm.path == [
            ("memtable", "miss"), ("bloom", "pass"), ("dram", "miss"), ("pcache", "hit")
        ]  # fmt: skip
        assert pcache_warm.cloud_s == 0.0 and pcache_warm.local_s > 0
        assert pcache_warm.value == cold.value

    def test_memtable_answers_and_bloom_rejections_are_rows_too(self):
        store = self.make_store()
        store.put(b"key0003", b"fresh")
        assert store.explain(b"key0003").path == [("memtable", "hit")]
        store.delete(b"key0004")
        deleted = store.explain(b"key0004")
        assert (deleted.value, deleted.path) == (None, [("memtable", "hit")])
        absent = store.explain(b"key0003-absent")
        assert absent.value is None
        assert absent.path[0] == ("memtable", "miss")
        probes = [row for row in absent.path[1:] if row[0] != "open"]
        assert probes and set(probes) == {("bloom", "reject")}  # no block source was asked

    def test_the_listener_is_removed_and_the_tracer_still_hears_everything(self):
        store = self.make_store()
        sink = store.db.block_path.event
        before = store.tracer.event_count("bloom_checked")
        store.explain(b"key0100")
        assert store.db.block_path.event == sink
        assert store.tracer.event_count("bloom_checked") == before + 1

    def test_a_baseline_explains_itself_through_the_same_sources(self):
        from repro.baselines.local_only import LocalOnlyConfig, LocalOnlyStore

        store = LocalOnlyStore.create(LocalOnlyConfig().small())
        for i in range(300):
            store.put(b"key%04d" % i, b"v" * 64, sync=False)
        store.flush()
        first = store.explain(b"key0100")
        assert first.path[-5:] == [*self.COLD, ("demand", "read")]
        assert store.explain(b"key0100").path[-1] == ("dram", "hit")
