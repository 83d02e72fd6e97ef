"""Property-based tests for the engine extensions: universal compaction,
compression, partitioned filters, checkpoints."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice

small_keys = st.binary(min_size=1, max_size=10)
small_values = st.binary(min_size=0, max_size=50)

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("put"), small_keys, small_values),
        st.tuples(st.just("del"), small_keys, st.just(b"")),
        st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    ),
    max_size=60,
)

PROP_SETTINGS = dict(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def tiny_options(**kw):
    defaults = dict(
        write_buffer_size=1 << 10,
        block_size=256,
        max_bytes_for_level_base=4 << 10,
        target_file_size_base=1 << 10,
        block_cache_bytes=0,
    )
    defaults.update(kw)
    return Options(**defaults)


def apply_ops(db, ops):
    model = {}
    for kind, k, v in ops:
        if kind == "put":
            db.put(k, v)
            model[k] = v
        elif kind == "del":
            db.delete(k)
            model.pop(k, None)
        else:
            db.flush()
    return model


class TestUniversalProp:
    @given(ops_strategy)
    @settings(**PROP_SETTINGS)
    def test_universal_db_matches_dict(self, ops):
        db = DB.open(
            LocalEnv(LocalDevice(SimClock())),
            "db/",
            tiny_options(compaction_style="universal", target_file_size_base=1 << 20),
        )
        model = apply_ops(db, ops)
        assert dict(db.scan()) == model
        for k in {k for _, k, _ in ops if k}:
            assert db.get(k) == model.get(k)
        db.close()

    @given(ops_strategy)
    @settings(**PROP_SETTINGS)
    def test_universal_crash_durability(self, ops):
        device = LocalDevice(SimClock())
        db = DB.open(
            LocalEnv(device),
            "db/",
            tiny_options(compaction_style="universal", target_file_size_base=1 << 20),
        )
        model = apply_ops(db, ops)
        device.crash()
        db2 = DB.open(
            LocalEnv(device),
            "db/",
            tiny_options(compaction_style="universal", target_file_size_base=1 << 20),
        )
        assert dict(db2.scan()) == model
        db2.close()


class TestFormatVariantsProp:
    @given(ops_strategy)
    @settings(**PROP_SETTINGS)
    def test_all_format_variants_agree(self, ops):
        """Compression must never change visible state."""
        variants = [tiny_options(), tiny_options(compression="zlib")]
        states = []
        for options in variants:
            db = DB.open(LocalEnv(LocalDevice(SimClock())), "db/", options)
            apply_ops(db, ops)
            states.append(dict(db.scan()))
            db.close()
        assert all(state == states[0] for state in states[1:])


class TestCheckpointProp:
    @given(ops_strategy, ops_strategy)
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_restore_reflects_snapshot_point(self, before_ops, after_ops):
        from repro.mash.checkpoint import create_checkpoint, restore_checkpoint
        from repro.mash.store import RocksMashStore, StoreConfig

        store = RocksMashStore.create(StoreConfig().small())
        model = {}
        for kind, k, v in before_ops:
            if kind == "put":
                store.put(k, v)
                model[k] = v
            elif kind == "del":
                store.delete(k)
                model.pop(k, None)
            else:
                store.flush()
        create_checkpoint(store, "prop")
        for kind, k, v in after_ops:
            if kind == "put":
                store.put(k, v + b"-mutated")
            elif kind == "del":
                store.delete(k)
        restored = restore_checkpoint(store.cloud_store, "prop", store.config)
        assert dict(restored.scan()) == model
