"""Integration tests for universal (tiered) compaction."""

import random

import pytest

from repro.lsm.db import DB, DBListeners
from repro.lsm.options import NUM_LEVELS, Options
from repro.lsm.universal import UniversalCompactionPicker
from repro.lsm.version import FileMetaData, Version, VersionEdit
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import TYPE_VALUE, make_internal_key


def universal_options(**kw):
    defaults = dict(
        compaction_style="universal",
        write_buffer_size=4 << 10,
        block_size=512,
        target_file_size_base=1 << 20,  # runs are whole merge outputs
        level0_file_num_compaction_trigger=4,
        block_cache_bytes=0,
    )
    defaults.update(kw)
    return Options(**defaults)


@pytest.fixture
def env():
    return LocalEnv(LocalDevice(SimClock()))


def fmd(number, size):
    return FileMetaData(
        number,
        size,
        make_internal_key(b"a", 10, TYPE_VALUE),
        make_internal_key(b"z", 10, TYPE_VALUE),
    )


def version_with_runs(sizes, bottom_size=0, num_levels=7):
    v = Version(num_levels)
    edit = VersionEdit()
    for i, size in enumerate(sizes, start=1):
        edit.add_file(0, fmd(i, size))
    if bottom_size:
        edit.add_file(num_levels - 1, fmd(100, bottom_size))
    return v.apply(edit)


class TestPicker:
    def test_below_trigger_no_pick(self):
        picker = UniversalCompactionPicker(universal_options())
        assert picker.pick(version_with_runs([100, 100, 100])) is None

    def test_size_ratio_merges_newest_prefix(self):
        picker = UniversalCompactionPicker(universal_options())
        # Newest runs similar size, then a huge old run: merge the prefix.
        v = version_with_runs([100_000, 100, 110, 120, 130])  # file 5 newest
        compaction = picker.pick(v)
        assert compaction is not None
        numbers = [m.number for m in compaction.inputs]
        assert 1 not in numbers  # the huge oldest run is left alone
        assert compaction.output_level == 0
        assert compaction.allow_tombstone_drop is False

    def test_space_amp_triggers_full_merge(self):
        picker = UniversalCompactionPicker(universal_options())
        v = version_with_runs([1000, 1000, 1000, 1000], bottom_size=500)
        compaction = picker.pick(v)
        assert compaction.output_level == picker.bottom_level
        assert compaction.allow_tombstone_drop is True
        assert len(compaction.inputs) == 4
        assert len(compaction.overlaps) == 1

    def test_no_bottom_full_merge_after_accumulation(self):
        picker = UniversalCompactionPicker(universal_options())
        v = version_with_runs([100] * 8)  # 2x trigger, no bottom level
        compaction = picker.pick(v)
        assert compaction.output_level == picker.bottom_level

    def test_options_validation(self):
        with pytest.raises(ValueError):
            Options(compaction_style="fifo")


class TestEndToEnd:
    def test_correctness_under_churn(self, env):
        db = DB.open(env, "db/", universal_options())
        model = {}
        rng = random.Random(11)
        for step in range(4000):
            k = f"key{rng.randrange(400):04d}".encode()
            if rng.random() < 0.75:
                v = f"v{step}".encode() + b"x" * 40
                db.put(k, v)
                model[k] = v
            else:
                db.delete(k)
                model.pop(k, None)
        assert dict(db.scan()) == model
        assert db.compaction_stats.compactions > 0
        db.close()

    def test_runs_stay_bounded(self, env):
        db = DB.open(env, "db/", universal_options())
        for i in range(6000):
            db.put(f"key{i:05d}".encode(), b"x" * 60)
        db.flush()
        # Tiered merging keeps the run count near the trigger.
        assert db.versions.current.num_files(0) <= 8
        db.close()

    def test_full_merge_lands_on_bottom_level(self, env):
        options = universal_options()
        db = DB.open(env, "db/", options)
        for i in range(8000):
            db.put(f"key{i % 1000:05d}".encode(), b"x" * 60)
        db.flush()
        assert db.versions.current.num_files(NUM_LEVELS - 1) > 0
        db.close()

    def test_tombstones_not_resurrected(self, env):
        """Partial merges must keep tombstones: a key deleted in a young run
        but present in an old run must stay deleted."""
        db = DB.open(env, "db/", universal_options())
        rng = random.Random(5)
        alive = {}
        for step in range(3000):
            k = f"key{rng.randrange(200):04d}".encode()
            if step % 3 == 0:
                db.delete(k)
                alive.pop(k, None)
            else:
                v = f"v{step}".encode()
                db.put(k, v)
                alive[k] = v
        for k in [f"key{i:04d}".encode() for i in range(200)]:
            assert db.get(k) == alive.get(k), k
        db.close()

    def test_partial_merge_writes_one_run_at_any_file_target(self, env):
        """Found by the store machine's universal axis. A partial merge split
        its output at ``target_file_size_base``: with a 1 KiB target, four
        runs merged into four files — four runs again — and the merges never
        stopped. A partial merge's output is one run, one file."""
        merges = []

        def count(event):
            merges.append(event)
            if len(merges) > 50:
                raise AssertionError("universal merges do not stop")

        options = universal_options(write_buffer_size=1 << 10, target_file_size_base=1 << 10)
        listeners = DBListeners(on_compaction=[count])
        db = DB.open(env, "db/", options, listeners=listeners)
        keys = [b"key%02d" % i for i in range(20)]
        for key in keys:
            db.put(key, b"v" * 300)
        db.compact_range()
        for key in keys:
            db.put(key, b"w" * 300)
        assert db.versions.current.num_files(0) < options.level0_file_num_compaction_trigger
        assert dict(db.scan()) == dict.fromkeys(keys, b"w" * 300)
        db.close()

    def test_recovery(self, env):
        db = DB.open(env, "db/", universal_options())
        for i in range(3000):
            db.put(f"key{i:05d}".encode(), b"x" * 60)
        env.device.crash()
        db2 = DB.open(env, "db/", universal_options())
        for i in range(0, 3000, 137):
            assert db2.get(f"key{i:05d}".encode()) == b"x" * 60
        db2.close()

    def test_write_amp_lower_than_leveled(self, env):
        """The textbook trade: universal rewrites fewer bytes per ingested
        byte than leveled."""

        def ingest(style):
            local_env = LocalEnv(LocalDevice(SimClock()))
            options = (
                universal_options()
                if style == "universal"
                else Options(
                    write_buffer_size=4 << 10,
                    block_size=512,
                    max_bytes_for_level_base=16 << 10,
                    target_file_size_base=4 << 10,
                    block_cache_bytes=0,
                )
            )
            db = DB.open(local_env, "db/", options)
            rng = random.Random(2)
            for _ in range(6000):
                db.put(f"key{rng.randrange(1500):05d}".encode(), b"x" * 60)
            written = db.compaction_stats.bytes_written
            db.close()
            return written

        assert ingest("universal") < ingest("leveled")

    def test_mash_store_with_universal_style(self):
        import dataclasses

        from repro.mash.store import RocksMashStore, StoreConfig

        config = StoreConfig().small()
        config = dataclasses.replace(
            config,
            options=dataclasses.replace(
                config.options, compaction_style="universal", target_file_size_base=1 << 20
            ),
        )
        store = RocksMashStore.create(config)
        for i in range(4000):
            store.put(f"key{i:05d}".encode(), b"v" * 60)
        for i in range(0, 4000, 173):
            assert store.get(f"key{i:05d}".encode()) == b"v" * 60
        # Full merges land on the bottom level -> demoted to the cloud.
        assert store.placement.cloud_table_bytes() > 0
        store2 = store.reopen(crash=True)
        assert store2.get(b"key00100") == b"v" * 60
