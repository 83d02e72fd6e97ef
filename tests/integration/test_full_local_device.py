"""A full local device fails the write that needs the space, never a read.

A cloud miss offers the block it fetched to the persistent cache. That
admission is optional: on a full device it is skipped and counted
(``pcache.full_device_skips``), and the read it rode on returns its value.
Before admission was best-effort, 627 of the 759 reads below raised the
device's capacity error.

Metadata pins are optional too: a table whose footer, index or filter does
not fit opens from the cloud instead. Before a pin was skipped, a reopen
after a crash on a full device raised the capacity error on 19 of 759
acknowledged keys at 64 KiB (below), and on 95 of 7 523 at 256 KiB.
"""

import dataclasses

import pytest

from repro.errors import DeviceFullError
from repro.mash.store import RocksMashStore, StoreConfig


def fill_until_full(capacity_bytes: int) -> tuple[RocksMashStore, dict[bytes, bytes]]:
    """200 B puts until the device refuses one; returns what was acknowledged."""
    config = dataclasses.replace(StoreConfig().small(), local_capacity_bytes=capacity_bytes)
    store = RocksMashStore.create(config)
    acknowledged = {}
    with pytest.raises(DeviceFullError):
        for i in range(20_000):
            key, value = b"key%06d" % i, bytes([i % 251]) * 200
            store.put(key, value)
            acknowledged[key] = value
    return store, acknowledged


def test_a_full_device_fails_no_read_of_an_acknowledged_key():
    store, acknowledged = fill_until_full(64 << 10)
    assert len(acknowledged) > 500
    assert {key: store.get(key) for key in acknowledged} == acknowledged
    metrics = store.metrics()
    assert metrics["pcache.full_device_skips"] > 0
    assert metrics["pcache.slab_bytes"] <= store.local_device.used_bytes()


def test_every_acknowledged_key_reads_back_after_a_crash_on_a_full_device():
    store, acknowledged = fill_until_full(64 << 10)
    assert len(acknowledged) == 759
    reopened = store.reopen(crash=True)
    assert {key: reopened.get(key) for key in acknowledged} == acknowledged
    assert reopened.metrics()["pcache.full_device_skips"] > 0
