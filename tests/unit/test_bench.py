"""Unit tests for the report table and bench harness."""

from dataclasses import replace

import pytest

from repro.bench.harness import SYSTEMS, HarnessKnobs, make_store, rocksmash_config
from repro.bench.report import Table
from repro.mash.store import RocksMashStore
from repro.workloads.generator import make_key, make_value


class TestTable:
    def test_render_aligned(self):
        t = Table("demo", ["name", "value"])
        t.add_row("alpha", 1.2345)
        t.add_row("b", 10000.0)
        text = t.render()
        assert "== demo ==" in text
        assert "alpha" in text and "10,000" in text

    def test_notes_rendered(self):
        t = Table("demo", ["x"], notes=["a note"])
        assert "note: a note" in t.render()

    def test_column_and_lookup(self):
        t = Table("demo", ["system", "score"])
        t.add_row("a", 1.0)
        t.add_row("b", 2.0)
        assert t.column("score") == [1.0, 2.0]
        assert t.cell("b", "score") == 2.0
        with pytest.raises(KeyError):
            t.cell("zz", "score")

    def test_float_formatting(self):
        t = Table("demo", ["v"])
        t.add_row(0.000123)
        t.add_row(0)
        text = t.render()
        assert "0.000123" in text


class TestHarness:
    def test_all_systems_constructible(self):
        for system in SYSTEMS:
            store = make_store(system)
            store.put(b"k", b"v")
            assert store.get(b"k") == b"v"
            assert store.name == system

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            make_store("spanner")

    def test_cloud_rtt_knob_respected(self):
        slow = make_store("cloud-only", HarnessKnobs(cloud_rtt=0.2))
        fast = make_store("cloud-only", HarnessKnobs(cloud_rtt=0.001))
        slow.put(b"k", b"v")
        fast.put(b"k", b"v")
        assert slow.clock.now > fast.clock.now

    def test_pin_metadata_ablation(self):
        store = RocksMashStore.create(replace(rocksmash_config(), pin_metadata=False))
        for i in range(2000):
            store.put(f"k{i:05d}".encode(), b"v" * 100)
        store.flush()
        assert store.pcache.meta_bytes == 0

    def test_pin_metadata_ablation_survives_reopen(self):
        """The ablation is the store's own config, so a restarted store
        (clean or crashed) pins nothing either, even on cold cloud opens."""
        config = rocksmash_config(HarnessKnobs(block_cache_bytes=0))
        store = RocksMashStore.create(replace(config, pin_metadata=False))
        for i in range(1500):
            store.put(make_key(i), make_value(i, 256))
        store.flush()
        for crash in (False, True):
            store = store.reopen(crash=crash)
            for i in range(0, 1500, 50):
                store.db.table_cache.clear()
                assert store.get(make_key(i)) == make_value(i, 256)
            events = store.tracer.event_count
            assert events("cloud_get") > 0  # the cold gets opened cloud tables
            assert store.pcache.meta_bytes == 0
            assert events("pcache_meta_hit") == events("pcache_footer_hit") == 0

    def test_xwal_shards_knob(self):
        config = rocksmash_config()
        store = RocksMashStore.create(replace(config, xwal=replace(config.xwal, num_shards=7)))
        store.put(b"k", b"v")
        xlogs = [n for n in store.env.list_files("db/") if n.endswith(".xlog")]
        assert len(xlogs) == 7

    def test_layout_knob(self):
        config = rocksmash_config()
        naive = RocksMashStore.create(replace(config, layout=replace(config.layout, aware=False)))
        assert naive.heat.config.aware is False
