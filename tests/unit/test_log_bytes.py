"""Golden log bytes: the write path's log files, byte for byte.

A fixed sequence of writes goes through a RocksMash store (the xWAL in four
shards, blob log on) and through a local-only store (the xWAL's one-shard
case, the serial WAL): a single put, a synced batch spanning several xWAL
shards, an unsynced put, a delete, and a value large enough to divert into
the xWAL's blob records. The memtable never fills, so every byte the sequence
wrote is still in the live log files. The RocksMash digests below were
recorded on the commit before the log began taking the batch itself instead
of its encoded bytes. The local-only digest and seconds were re-recorded once,
when the baselines' own log format was retired for the one-shard xWAL: the
sequence's two multi-op batches now carry an 8 B sequence number per op after
the first (1 045 -> 1 125 B). A change that means to move a log format
re-records them and says so.
"""

import hashlib
from dataclasses import replace

from repro.baselines.local_only import LocalOnlyConfig, LocalOnlyStore
from repro.lsm.wal import RECORD_HEADER_SIZE, XWalConfig, shard_of
from repro.lsm.write_batch import WriteBatch
from repro.mash.store import RocksMashStore, StoreConfig

BLOB_THRESHOLD = 64
NUM_SHARDS = 4

XWAL_DIGESTS = {
    "db/000002-00.xlog": "9f7baaaf751bb6e85b41d4d86939a20e48c7371635f3de1198d3f83a27794ad0",
    "db/000002-01.xlog": "78aed32753d57dbdd7f7afb72b3a40fee401a69c06d7814fd2dedbbbd4ae408e",
    "db/000002-02.xlog": "65e25c7f3de74e0f85e99207fec2baeb20c26538369c93faeaeff931ec3a0eff",
    "db/000002-03.xlog": "57e8f76658b60770a7374eed7a79176dc2ee9261191808cc0a829f0cd66da2be",
}
WAL_DIGESTS = {
    "db/000002-00.xlog": "395f71a930bf62cf14b8e9fd28e2e9e911838a76854326f966fc2002e4bb7906",
}
SIM_SECONDS = {"rocksmash": 0.0012212928333333332, "local-only": 0.0008813225}
"""Simulated seconds the sequence took: the syncs it paid, multi-shard ones
concurrent."""


def drive(store) -> dict[bytes, bytes]:
    """The fixed write sequence; returns the model of what it left."""
    model: dict[bytes, bytes] = {}

    def put(key: bytes, value: bytes, *, sync: bool = True) -> None:
        store.put(key, value, sync=sync)
        model[key] = value

    put(b"alpha", b"one")
    batch = WriteBatch()
    batch_keys = [b"k%02d" % i for i in range(8)]
    for key in batch_keys:
        batch.put(key, b"batch-" + key)
    batch.delete(b"alpha")
    store.write(batch, sync=True)
    model.update((key, b"batch-" + key) for key in batch_keys)
    model.pop(b"alpha")
    put(b"lazy", b"unsynced", sync=False)
    store.delete(b"k03")
    model.pop(b"k03")
    put(b"lazy", b"synced")  # same key, so same shard: makes the unsynced record durable
    put(b"big", bytes(range(256)) * 2)
    mixed = WriteBatch()
    mixed.put(b"small", b"s").put(b"large", b"L" * (BLOB_THRESHOLD * 3)).delete(b"k05")
    store.write(mixed, sync=True)
    model.update({b"small": b"s", b"large": b"L" * (BLOB_THRESHOLD * 3)})
    model.pop(b"k05")
    return model


def log_digests(store, suffix: str) -> dict[str, str]:
    device = store.local_device
    return {
        name: hashlib.sha256(device.read(name)).hexdigest()
        for name in device.list_files("db/")  # every store here keeps its database there
        if name.endswith(suffix)
    }


def test_xwal_shard_files_keep_their_bytes():
    assert len({shard_of(b"k%02d" % i, NUM_SHARDS) for i in range(8)}) >= 2  # the batch spans shards
    config = StoreConfig().small()
    config = replace(
        config,
        options=replace(
            config.options, write_buffer_size=1 << 20, blob_value_threshold=BLOB_THRESHOLD
        ),
        xwal=replace(config.xwal, num_shards=NUM_SHARDS),
    )
    store = RocksMashStore.create(config)
    model = drive(store)
    assert store.db.blob_store.records_diverted == 2
    assert log_digests(store, ".xlog") == XWAL_DIGESTS
    assert store.clock.now == SIM_SECONDS["rocksmash"]
    reopened = store.reopen(crash=True)
    assert {key: reopened.get(key) for key in model} == model
    reopened.close()


def test_plain_wal_file_keeps_its_bytes():
    store = LocalOnlyStore.create(LocalOnlyConfig().small())
    model = drive(store)
    assert log_digests(store, ".xlog") == WAL_DIGESTS
    assert store.clock.now == SIM_SECONDS["local-only"]
    reopened = store.reopen(crash=True)
    assert {key: reopened.get(key) for key in model} == model
    reopened.close()


SERIAL_WAL = {"bytes": 26_230, "seconds": 0.013710611666666664}
"""What the single-op sequence below left in the local-only store's serial
WAL, a ``.log`` file of one encoded batch per record, before that format was
retired for the one-shard xWAL."""


def test_single_op_records_are_as_long_as_the_serial_wal_was():
    """A put or delete alone is one record of framing, a 4 B op count, the
    op's 8 B sequence number, its type byte and the length-prefixed key (and
    value): exactly as long as the serial WAL's record of a one-op batch,
    whose header held the same count and sequence. Every baseline figure
    rests on this equality."""
    config = LocalOnlyConfig().small()
    config = replace(config, options=replace(config.options, write_buffer_size=1 << 20))
    store = LocalOnlyStore.create(config)
    expected = 0
    for i in range(200):
        key, value = b"key%05d" % i, bytes([i % 251]) * 100
        store.put(key, value, sync=i % 3 != 0)
        expected += RECORD_HEADER_SIZE + 4 + 8 + 1 + 1 + len(key) + 1 + len(value)
    store.delete(b"key00007")
    expected += RECORD_HEADER_SIZE + 4 + 8 + 1 + 1 + len(b"key00007")
    (name,) = [n for n in store.local_device.list_files("db/") if n.endswith(".xlog")]
    assert len(store.local_device.read(name)) == expected == SERIAL_WAL["bytes"]
    assert store.clock.now == SERIAL_WAL["seconds"]
    store.close()


def test_baseline_recovery_charges_replay_cpu_per_record():
    """A baseline replays its log as the xWAL does, at
    ``apply_cost_per_record`` CPU seconds a record; the serial WAL's replay
    charged none, so its recovery was its log read alone (0.75 ms here)."""
    config = LocalOnlyConfig().small()
    config = replace(config, options=replace(config.options, write_buffer_size=4 << 20))
    store = LocalOnlyStore.create(config)
    records = 500
    for i in range(records):
        store.put(b"key%05d" % i, b"v" * 32)
    reopened = store.reopen(crash=True)
    replay_cpu = records * XWalConfig().apply_cost_per_record
    assert reopened.last_recovery_seconds >= replay_cpu
    assert reopened.get(b"key00499") == b"v" * 32
    reopened.close()
