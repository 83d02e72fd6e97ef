"""Integration tests for scan range pruning, scan reads of cloud tables and
scan prefetch."""

from dataclasses import replace

import pytest

from repro.bench.harness import HarnessKnobs, make_store
from repro.lsm.db import DB
from repro.lsm.format import BLOCK_TRAILER_SIZE, FOOTER_SIZE, table_file_name
from repro.lsm.options import Options
from repro.mash.store import RocksMashStore, StoreConfig
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import seek_goal
from repro.workloads import dbbench
from repro.workloads.generator import make_key


def l0_options():
    """Big memtable + high L0 trigger: explicit flushes pile up L0 files."""
    return Options(
        write_buffer_size=64 << 10,
        block_size=512,
        level0_file_num_compaction_trigger=100,
        block_cache_bytes=0,
    )


@pytest.fixture
def db():
    database = DB.open(LocalEnv(LocalDevice(SimClock())), "db/", l0_options())
    yield database
    database.close()


def fill_chunks(db, chunks=8, per_chunk=50):
    """One L0 file per chunk; chunk ``j`` owns keys ``{j:02d}k{i:03d}``."""
    for j in range(chunks):
        for i in range(per_chunk):
            db.put(f"{j:02d}k{i:03d}".encode(), f"v{j}.{i}".encode())
        db.flush()


class TestScanRangePruning:
    """Scans must not open readers for files disjoint from [begin, end)."""

    def test_forward_scan_opens_only_intersecting_l0(self, db):
        fill_chunks(db)
        assert db.metrics()["level.0.files"] == 8
        db.table_cache.clear()
        got = list(db.scan(b"03", b"04"))
        assert len(got) == 50
        assert all(k.startswith(b"03") for k, _ in got)
        assert len(db.table_cache) == 1

    def test_end_boundary_is_exclusive(self, db):
        fill_chunks(db)
        db.table_cache.clear()
        # end == chunk 4's smallest key: chunk 4's file must stay closed.
        got = list(db.scan(b"03k000", b"04k000"))
        assert len(got) == 50
        assert len(db.table_cache) == 1

    def test_unbounded_scan_still_sees_everything(self, db):
        fill_chunks(db)
        assert len(list(db.scan())) == 8 * 50


def cold_cloud_store(depth, records=600):
    """RocksMash with everything below L0 cloud-resident and caches cold."""
    store = make_store(
        "rocksmash",
        HarnessKnobs(
            scan_prefetch_depth=depth,
            cloud_level=1,
            block_cache_bytes=0,
            pcache_budget_bytes=4 << 10,
        ),
    )
    dbbench.fill_database(store, records)
    store.db.table_cache.clear()
    return store


class TestScanPrefetchPipeline:
    def test_results_identical_and_round_trips_hidden(self):
        base = cold_cloud_store(depth=0)
        piped = cold_cloud_store(depth=2)

        t0 = base.clock.now
        expect = base.scan()
        base_elapsed = base.clock.now - t0

        t0 = piped.clock.now
        got = piped.scan()
        piped_elapsed = piped.clock.now - t0

        assert got == expect
        assert base.tracer.event_count("prefetch_issue") == 0
        assert piped.tracer.event_count("prefetch_issue") > 0
        assert piped.tracer.event_count("prefetch_hit") > 0
        assert piped.tracer.event_count("seek_fanout") == 1
        assert piped_elapsed < base_elapsed

    def test_prefetch_replaces_demand_gets(self):
        base = cold_cloud_store(depth=0)
        piped = cold_cloud_store(depth=2)
        gets0 = base.counters.get("cloud.get_ops")
        base.scan()
        gets1 = piped.counters.get("cloud.get_ops")
        piped.scan()
        base_gets = base.counters.get("cloud.get_ops") - gets0
        piped_gets = piped.counters.get("cloud.get_ops") - gets1
        # The pipeline issues the scan's own reads, only earlier: on a full
        # scan, which reaches every table it primes, the counts are equal.
        assert piped_gets == base_gets
        assert piped.tracer.event_count("prefetch_waste") == 0

    def test_short_scan_waste_bounded_by_depth(self):
        store = cold_cloud_store(depth=4)
        store.scan(make_key(0), None, limit=5)
        waste = store.tracer.event_count("prefetch_waste")
        assert waste <= 4
        issued = store.tracer.event_count("prefetch_issue")
        hits = store.tracer.event_count("prefetch_hit")
        assert hits + waste == issued

    def test_depth_zero_builds_no_pipeline(self):
        # At depth 0 a scan runs without any speculation.
        store = cold_cloud_store(depth=0)
        store.scan()
        for label in ("prefetch_issue", "prefetch_hit", "prefetch_waste"):
            assert store.tracer.event_count(label) == 0

    def test_scan_readahead_fires_on_cloud_tables(self):
        store = cold_cloud_store(depth=0)
        hits0 = store.tracer.event_count("readahead_hit")
        assert len(store.scan()) == 600
        # Each miss fills the scan's buffer of the table with one ranged
        # GET, and the blocks after it are buffered hits, not GETs.
        assert store.tracer.event_count("readahead_hit") - hits0 > 50


def compacted_cloud_store():
    """Every key on one cloud level, 51 keys a table, nothing opened and no
    data block cached: a scan's cloud requests are its data reads alone."""
    config = StoreConfig().small()
    store = RocksMashStore.create(
        replace(config, placement=replace(config.placement, cloud_level=1))
    )
    for i in range(1500):
        store.put(make_key(i * 7 % 1500), b"v" * 64, sync=False)
    store.compact_range(None, None)
    store.db.table_cache.clear()
    assert store.pcache.data_bytes == 0
    return store


def spy_gets(monkeypatch, store):
    """Record every ranged GET as ``(object, offset, length)``."""
    gets = []
    get_range = store.cloud_store.get_range

    def spy(key, offset, length):
        gets.append((key, offset, length))
        return get_range(key, offset, length)

    monkeypatch.setattr(store.cloud_store, "get_range", spy)
    return gets


def middle_table(store):
    """A cloud table in the middle of the key space, its name, its open
    reader and its keys (known from the fill, so nothing is read)."""
    files = sorted(store.db.versions.current.files[-1], key=lambda meta: meta.smallest)
    meta = files[len(files) // 2]
    name = table_file_name(store.config.db_prefix, meta.number)
    assert store.env.is_cloud(name)
    reader = store.db.table_cache.get_reader(meta.number)  # pinned metadata: no GET
    keys = [make_key(i) for i in range(1500)]
    keys = [k for k in keys if meta.smallest_user_key <= k <= meta.largest_user_key]
    return meta, name, reader, keys


def block_end(handle):
    return handle.offset + handle.size + BLOCK_TRAILER_SIZE


class TestOneReadPerCloudTable:
    """A scan's miss on a cloud table issues one ranged GET, from the missed
    block to what the scan can still need (its ``limit`` and ``end``), and
    keeps the range for the rest of the scan."""

    def test_cold_limited_scan_issues_one_get_sized_by_its_limit(self, monkeypatch):
        store = compacted_cloud_store()
        meta, name, reader, keys = middle_table(store)
        limit = 12
        gets = spy_gets(monkeypatch, store)
        rows = store.scan(meta.smallest_user_key, None, limit)
        assert len(rows) == limit and rows[-1][0] <= meta.largest_user_key
        assert len(gets) == 1
        key, offset, length = gets[0]
        seek_block = reader.edge_data_handle(seek_goal(meta.smallest_user_key))
        assert key == name and offset == seek_block.offset
        assert offset + length >= block_end(seek_block)
        data_bytes = reader.footer.filter_handle.offset
        assert length <= block_end(seek_block) - offset + limit * data_bytes / len(keys)
        assert length < data_bytes  # the limit, not the table, bounded it

    def test_end_bounded_scan_stops_at_the_block_holding_end(self, monkeypatch):
        store = compacted_cloud_store()
        meta, name, reader, keys = middle_table(store)
        begin, end = keys[0], keys[30]
        gets = spy_gets(monkeypatch, store)
        assert len(store.scan(begin, end)) == 30
        assert len(gets) == 1
        key, offset, length = gets[0]
        last = reader.edge_data_handle(seek_goal(end))
        assert key == name and offset == reader.edge_data_handle(seek_goal(begin)).offset
        assert offset + length == block_end(last) < reader.footer.filter_handle.offset

    def test_cached_block_between_misses_costs_no_second_get(self, monkeypatch):
        store = compacted_cloud_store()
        meta, name, reader, keys = middle_table(store)
        begin, warm, end = keys[0], keys[20], keys[40]
        assert store.get(warm) is not None  # its block now in DRAM and pcache
        warm_block = reader.edge_data_handle(seek_goal(warm))
        assert reader.edge_data_handle(seek_goal(begin)).offset < warm_block.offset
        assert warm_block.offset < reader.edge_data_handle(seek_goal(end)).offset
        cached = store.tracer.event_count("dram_hit") + store.tracer.event_count("pcache_hit")
        buffered = store.tracer.event_count("readahead_hit")
        gets = spy_gets(monkeypatch, store)
        assert len(store.scan(begin, end)) == 40
        # The warm block came from a cache, the blocks on either side of it
        # from the scan's one range: no second GET for bytes it holds.
        hits = store.tracer.event_count("dram_hit") + store.tracer.event_count("pcache_hit")
        assert hits > cached
        assert store.tracer.event_count("readahead_hit") > buffered
        assert [key for key, _, _ in gets] == [name]


class TestPointGetsReadNoRange:
    """A point get reads its one block: only a scan reads ahead."""

    def test_ascending_gets_issue_one_block_sized_get_each(self, monkeypatch):
        store = compacted_cloud_store()
        meta, name, reader, keys = middle_table(store)
        first_in_block = {}  # block offset -> (its first key, its handle), ascending
        for key in keys:
            handle = reader.edge_data_handle(seek_goal(key))
            first_in_block.setdefault(handle.offset, (key, handle))
        assert len(first_in_block) >= 4, "too few blocks to look sequential"
        readahead = store.metrics()["blocks.readahead"]
        gets = spy_gets(monkeypatch, store)
        for key, _ in first_in_block.values():
            assert store.get(key) is not None
        assert gets == [
            (name, handle.offset, handle.size + BLOCK_TRAILER_SIZE)
            for _, handle in first_in_block.values()
        ]
        assert store.metrics()["blocks.readahead"] == readahead


class TestPinnedMetadataOpensCloudTables:
    """The fact the single scan path rests on (DESIGN.md §10): with the
    paper's metadata pinning, a cold open of a cloud table costs no cloud
    round trip — its footer, index and filter come from the persistent
    cache's pinned region — so the merging iterator pays nothing per table
    that a precomputed block map would save."""

    def test_cold_seek_scan_reads_no_table_metadata_from_the_cloud(self, monkeypatch):
        config = StoreConfig().small()
        store = RocksMashStore.create(
            replace(config, placement=replace(config.placement, cloud_level=1))
        )
        for i in range(1500):
            store.put(make_key(i * 7 % 1500), b"v" * 64, sync=False)
        store.compact_range(None, None)
        cloud = store.cloud_store
        requests = []
        get_range, head = cloud.get_range, cloud.head

        def spy_get_range(key, offset, length):
            requests.append((key, offset))
            return get_range(key, offset, length)

        def spy_head(key):
            requests.append((key, "HEAD"))
            return head(key)

        monkeypatch.setattr(cloud, "get_range", spy_get_range)
        monkeypatch.setattr(cloud, "head", spy_head)
        store.db.table_cache.clear()
        footer_hits = store.tracer.event_count("pcache_footer_hit")
        meta_hits = store.tracer.event_count("pcache_meta_hit")

        assert len(store.scan(make_key(300), None, limit=20)) == 20

        opened = []
        for _level, meta in store.db.versions.current.all_files():
            name = table_file_name(store.config.db_prefix, meta.number)
            if store.db.table_cache.has_reader(meta.number) and store.env.is_cloud(name):
                opened.append((name, meta, store.db.table_cache.get_reader(meta.number).footer))
        assert opened, "the scan opened no cloud table: the fixture is too small"
        metadata_reads = {(name, meta.file_size - FOOTER_SIZE) for name, meta, _ in opened}
        metadata_reads |= {(name, "HEAD") for name, _, _ in opened}
        for name, _, footer in opened:
            metadata_reads |= {
                (name, footer.index_handle.offset),
                (name, footer.filter_handle.offset),
            }
        assert not metadata_reads & set(requests)
        assert requests, "the scan's data blocks still come from the cloud"
        assert store.tracer.event_count("pcache_footer_hit") - footer_hits == len(opened)
        filters = sum(footer.filter_handle.size > 0 for _, _, footer in opened)
        assert store.tracer.event_count("pcache_meta_hit") - meta_hits == len(opened) + filters
