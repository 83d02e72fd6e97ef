"""Golden log bytes: the write path's log files, byte for byte.

A fixed sequence of writes goes through a RocksMash store (the sharded xWAL,
blob log on) and through a local-only store (the plain WAL): a single put, a
synced batch spanning several xWAL shards, an unsynced put, a delete, and a
value large enough to divert into the xWAL's blob records. The memtable never
fills, so every byte the sequence wrote is still in the live log files. Their
digests below were recorded on the commit before the log began taking the
batch itself instead of its encoded bytes; a change that means to move a log
format re-records them and says so.
"""

import hashlib
from dataclasses import replace

from repro.baselines.local_only import LocalOnlyConfig, LocalOnlyStore
from repro.lsm.write_batch import WriteBatch
from repro.mash.store import RocksMashStore, StoreConfig
from repro.mash.xwal import shard_of

BLOB_THRESHOLD = 64
NUM_SHARDS = 4

XWAL_DIGESTS = {
    "db/000002-00.xlog": "9f7baaaf751bb6e85b41d4d86939a20e48c7371635f3de1198d3f83a27794ad0",
    "db/000002-01.xlog": "78aed32753d57dbdd7f7afb72b3a40fee401a69c06d7814fd2dedbbbd4ae408e",
    "db/000002-02.xlog": "65e25c7f3de74e0f85e99207fec2baeb20c26538369c93faeaeff931ec3a0eff",
    "db/000002-03.xlog": "57e8f76658b60770a7374eed7a79176dc2ee9261191808cc0a829f0cd66da2be",
}
WAL_DIGESTS = {
    "db/000002.log": "10d8a7a2e5d694115e615aad005b8fb7e176d0b6ef577de614713bcfa767f0cc",
}
SIM_SECONDS = {"rocksmash": 0.0012212928333333332, "local-only": 0.0008812291666666667}
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
        for name in device.list_files(store.config.db_prefix)
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
    assert log_digests(store, ".log") == WAL_DIGESTS
    assert store.clock.now == SIM_SECONDS["local-only"]
    reopened = store.reopen(crash=True)
    assert {key: reopened.get(key) for key in model} == model
    reopened.close()
