"""Property tests for xWAL torn tails and shard-record corruption.

The xWAL's correctness argument under crash is *per-key prefix
consistency*: key-hash partitioning puts all updates of one key in one
shard, so truncating any shard at any byte offset can only drop a suffix
of that key's update sequence — never an interior update. These tests let
hypothesis tear every shard of a generation at arbitrary byte offsets and
check that the replayed ops for each key are exactly a prefix of what was
written, and that ``corrupt_shards`` counts the shards whose tail was torn
mid-frame.

Separately, :func:`decode_shard_record` must reject every strict
truncation or extension of a valid encoding with ``CorruptionError`` —
the paths a torn frame-CRC miss would otherwise fall through to.
"""

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.format import xlog_file_name
from repro.lsm.wal import (
    LogReader,
    XWalConfig,
    XWalReplayer,
    XWalWriter,
    decode_shard_record,
    encode_shard_record,
    shard_of,
)
from repro.lsm.write_batch import WriteBatch
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import TYPE_DELETION, TYPE_VALUE

small_keys = st.binary(min_size=1, max_size=8)
small_values = st.binary(min_size=0, max_size=32)

wal_batches = st.lists(
    st.lists(
        st.one_of(
            st.tuples(st.just("put"), small_keys, small_values),
            st.tuples(st.just("del"), small_keys, st.just(b"")),
        ),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=20,
)


def _write_generation(env, device, batches, *, shards, sync_last):
    """Write batches into generation 1; return the per-key op sequences."""
    config = XWalConfig(num_shards=shards)
    writer = XWalWriter(env, "db/", 1, config)
    per_key: dict[bytes, list[tuple[int, int, bytes]]] = {}
    seq = 1
    for i, ops in enumerate(batches):
        batch = WriteBatch()
        for kind, key, value in ops:
            if kind == "put":
                batch.put(key, value)
            else:
                batch.delete(key)
        batch.sequence = seq
        s = seq
        for op in batch:
            per_key.setdefault(op.key, []).append((s, op.value_type, op.value))
            s += 1
        seq += len(batch)
        last = i == len(batches) - 1
        writer.add_batch(batch, sync=sync_last or not last)
    return config, per_key


@seed(20260808)
@given(
    batches=wal_batches,
    shards=st.integers(min_value=1, max_value=6),
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6
    ),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_torn_shards_keep_per_key_prefix_consistency(batches, shards, fractions):
    device = LocalDevice(SimClock())
    env = LocalEnv(device)
    config, per_key = _write_generation(
        env, device, batches, shards=shards, sync_last=True
    )

    # Tear each shard at a hypothesis-chosen byte offset. write_file is the
    # atomic create-or-replace primitive, so this models exactly "the file
    # ends here now".
    expected_corrupt = 0
    for shard in range(shards):
        name = xlog_file_name("db/", 1, shard)
        if not env.file_exists(name):
            continue
        data = env.read_file(name)
        keep = int(len(data) * fractions[shard])
        env.write_file(name, data[:keep])
        torn = LogReader(data[:keep])
        for _ in torn:
            pass
        if torn.tail_corrupt:
            expected_corrupt += 1

    replayer = XWalReplayer(env, config)
    replayed: dict[bytes, list[tuple[int, int, bytes]]] = {}
    for op_seq, value_type, key, value in replayer.replay(1, env.list_files("db/000001-")):
        replayed.setdefault(key, []).append((op_seq, value_type, value))

    assert replayer.corrupt_shards == expected_corrupt
    for key, got in replayed.items():
        want = per_key[key]
        got.sort()
        # Everything recovered for a key is a *prefix* of its written
        # update sequence — a torn shard may lose the newest updates but
        # can never skip an interior one or invent data.
        assert got == want[: len(got)]


@seed(20260809)
@given(batches=wal_batches, shards=st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_untorn_replay_is_complete_and_exact(batches, shards):
    device = LocalDevice(SimClock())
    env = LocalEnv(device)
    config, per_key = _write_generation(
        env, device, batches, shards=shards, sync_last=True
    )
    replayer = XWalReplayer(env, config)
    replayed: dict[bytes, list[tuple[int, int, bytes]]] = {}
    for op_seq, value_type, key, value in replayer.replay(1, env.list_files("db/000001-")):
        assert shard_of(key, shards) == shard_of(key, shards)
        replayed.setdefault(key, []).append((op_seq, value_type, value))
    assert replayer.corrupt_shards == 0
    for key, want in per_key.items():
        got = sorted(replayed.get(key, []))
        assert got == want
    assert replayer.records_replayed == sum(len(v) for v in per_key.values())


@seed(20260810)
@given(batches=wal_batches, shards=st.integers(min_value=2, max_value=6), crash_seed=st.integers(min_value=0, max_value=1 << 16))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_torn_tail_device_crash_preserves_prefix(batches, shards, crash_seed):
    """Same property, but the tear comes from the device's own
    byte-granular torn-tail crash on an unsynced final batch."""
    import random

    device = LocalDevice(SimClock())
    env = LocalEnv(device)
    config, per_key = _write_generation(
        env, device, batches, shards=shards, sync_last=False
    )
    device.crash(torn_tail=True, rng=random.Random(crash_seed))

    replayer = XWalReplayer(env, config)
    replayed: dict[bytes, list[tuple[int, int, bytes]]] = {}
    for op_seq, value_type, key, value in replayer.replay(1, env.list_files("db/000001-")):
        replayed.setdefault(key, []).append((op_seq, value_type, value))
    for key, got in replayed.items():
        got.sort()
        assert got == per_key[key][: len(got)]


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just(TYPE_VALUE), small_keys, small_values),
        st.tuples(st.just(TYPE_DELETION), small_keys, st.just(b"")),
    ),
    min_size=0,
    max_size=8,
).map(lambda ops: [(1000 + i, t, k, v) for i, (t, k, v) in enumerate(ops)])


class TestDecodeShardRecordCorruption:
    @seed(20260811)
    @given(ops=ops_strategy, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_strict_truncation_raises(self, ops, data):
        encoded = encode_shard_record(ops)
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        with pytest.raises(CorruptionError):
            decode_shard_record(encoded[:cut])

    @seed(20260812)
    @given(ops=ops_strategy, junk=st.binary(min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_trailing_junk_raises(self, ops, junk):
        encoded = encode_shard_record(ops)
        with pytest.raises(CorruptionError):
            decode_shard_record(encoded + junk)

    @seed(20260813)
    @given(ops=ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, ops):
        assert decode_shard_record(encode_shard_record(ops)) == ops
