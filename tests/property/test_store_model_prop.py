"""Property-based whole-store tests: dict-model equivalence, durability,
pcache consistency, xWAL shard partitioning."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lsm.db import DB
from repro.lsm.options import Options
from repro.lsm.wal import XWalConfig, XWalReplayer, XWalWriter, shard_of
from repro.lsm.write_batch import WriteBatch
from repro.mash.pcache import PCacheConfig, PersistentCache
from repro.mash.store import RocksMashStore, StoreConfig
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice

small_keys = st.binary(min_size=1, max_size=12)
small_values = st.binary(min_size=0, max_size=60)

db_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), small_keys, small_values),
        st.tuples(st.just("del"), small_keys, st.just(b"")),
        st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    ),
    max_size=80,
)


def tiny_options():
    return Options(
        write_buffer_size=1 << 10,
        block_size=256,
        max_bytes_for_level_base=4 << 10,
        target_file_size_base=1 << 10,
        block_cache_bytes=0,
    )


class TestDBModel:
    @given(db_ops)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_db_matches_dict(self, ops):
        env = LocalEnv(LocalDevice(SimClock()))
        db = DB.open(env, "db/", tiny_options())
        model: dict[bytes, bytes] = {}
        for kind, k, v in ops:
            if kind == "put":
                db.put(k, v)
                model[k] = v
            elif kind == "del":
                db.delete(k)
                model.pop(k, None)
            else:
                db.flush()
        for k in {k for _, k, _ in ops if k}:
            assert db.get(k) == model.get(k)
        assert dict(db.scan()) == model
        db.close()

    @given(db_ops)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_reopen_preserves_everything(self, ops):
        env = LocalEnv(LocalDevice(SimClock()))
        db = DB.open(env, "db/", tiny_options())
        model: dict[bytes, bytes] = {}
        for kind, k, v in ops:
            if kind == "put":
                db.put(k, v)
                model[k] = v
            elif kind == "del":
                db.delete(k)
                model.pop(k, None)
            else:
                db.flush()
        db.close()
        db2 = DB.open(env, "db/", tiny_options())
        assert dict(db2.scan()) == model
        db2.close()

    @given(db_ops, st.booleans())
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_synced_writes_survive_crash(self, ops, crash_mid):
        """Durability: every acknowledged (synced) write survives a crash."""
        device = LocalDevice(SimClock())
        env = LocalEnv(device)
        db = DB.open(env, "db/", tiny_options())
        model: dict[bytes, bytes] = {}
        for kind, k, v in ops:
            if kind == "put":
                db.put(k, v, sync=True)
                model[k] = v
            elif kind == "del":
                db.delete(k, sync=True)
                model.pop(k, None)
            else:
                db.flush()
        device.crash()
        db2 = DB.open(env, "db/", tiny_options())
        assert dict(db2.scan()) == model
        db2.close()


class TestRocksMashModel:
    @given(db_ops)
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_store_matches_dict_through_crash(self, ops):
        store = RocksMashStore.create(StoreConfig().small())
        model: dict[bytes, bytes] = {}
        for kind, k, v in ops:
            if kind == "put":
                store.put(k, v)
                model[k] = v
            elif kind == "del":
                store.delete(k)
                model.pop(k, None)
            else:
                store.flush()
        store2 = store.reopen(crash=True)
        assert dict(store2.scan()) == model


class TestXWalPartitioning:
    @given(
        st.lists(st.tuples(small_keys, small_values), min_size=1, max_size=40),
        st.integers(1, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_op_recovered_exactly_once(self, puts, shards):
        device = LocalDevice(SimClock())
        env = LocalEnv(device)
        config = XWalConfig(num_shards=shards)
        writer = XWalWriter(env, "db/", 1, config)
        seq = 1
        expected = set()
        for k, v in puts:
            batch = WriteBatch().put(k, v)
            batch.sequence = seq
            expected.add((seq, 1, k, v))
            seq += 1
            writer.add_batch(batch)
        writer.close()
        replayer = XWalReplayer(env, config)
        assert set(replayer.replay(1, env.list_files("db/000001-"))) == expected

    @given(small_keys, st.integers(1, 32))
    def test_shard_stable_and_in_range(self, key, n):
        s = shard_of(key, n)
        assert 0 <= s < n
        assert shard_of(key, n) == s


class TestPCacheModel:
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("put"),
                    st.sampled_from(["a.sst", "b.sst", "c.sst"]),
                    st.integers(0, 10),
                    st.binary(min_size=1, max_size=40),
                ),
                st.tuples(
                    st.just("drop"),
                    st.sampled_from(["a.sst", "b.sst", "c.sst"]),
                    st.just(0),
                    st.just(b""),
                ),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_get_returns_exactly_what_was_put(self, ops):
        device = LocalDevice(SimClock())
        cache = PersistentCache.open(
            device, PCacheConfig(data_budget_bytes=100_000, sync_every_n_appends=1)
        )
        shadow: dict[tuple[str, int], bytes] = {}
        for op in ops:
            if op[0] == "put":
                _, name, offset, payload = op
                cache.put_data(name, offset, payload)
                # Blocks are immutable: a re-put of a live (file, offset) is
                # a no-op, so the first payload wins until the file is
                # dropped.
                shadow.setdefault((name, offset), payload)
            else:
                _, name, _, _ = op
                cache.drop_file(name)
                for key in [k for k in shadow if k[0] == name]:
                    del shadow[key]
        for (name, offset), payload in shadow.items():
            assert cache.get_data(name, offset) == payload
        # Restart: contents identical (budget was never exceeded).
        cache.sync()
        cache2 = PersistentCache.open(device, cache.config)
        for (name, offset), payload in shadow.items():
            assert cache2.get_data(name, offset) == payload
        for name in ["a.sst", "b.sst", "c.sst"]:
            for offset in range(11):
                if (name, offset) not in shadow:
                    assert cache2.get_data(name, offset) is None
