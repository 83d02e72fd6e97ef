"""A full local device fails the write that needs the space, never a read.

A cloud miss offers the block it fetched to the persistent cache. That
admission is optional: on a full device it is skipped and counted
(``pcache.full_device_skips``), and the read it rode on returns its value.
Before admission was best-effort, 627 of the 759 reads below raised the
device's capacity error.
"""

import dataclasses

import pytest

from repro.errors import DeviceFullError
from repro.mash.store import RocksMashStore, StoreConfig


def test_a_full_device_fails_no_read_of_an_acknowledged_key():
    config = dataclasses.replace(StoreConfig().small(), local_capacity_bytes=64 << 10)
    store = RocksMashStore.create(config)
    acknowledged = {}
    with pytest.raises(DeviceFullError):
        for i in range(20_000):
            key, value = b"key%06d" % i, bytes([i % 251]) * 200
            store.put(key, value)
            acknowledged[key] = value
    assert len(acknowledged) > 500
    assert {key: store.get(key) for key in acknowledged} == acknowledged
    metrics = store.metrics()
    assert metrics["pcache.full_device_skips"] > 0
    assert metrics["pcache.slab_bytes"] <= store.local_device.used_bytes()
