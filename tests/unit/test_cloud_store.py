"""Unit tests for the simulated cloud object store."""

import pytest

from repro.errors import IOErrorSim, NotFoundError
from repro.mash.store import RocksMashStore, StoreConfig
from repro.sim.clock import SimClock
from repro.sim.failure import FaultInjector, RetryPolicy
from repro.storage.cloud import CloudObjectStore


@pytest.fixture
def store():
    return CloudObjectStore(SimClock())


class TestObjectAPI:
    def test_put_get(self, store):
        store.put("key", b"value")
        assert store.get("key") == b"value"

    def test_put_overwrites(self, store):
        store.put("key", b"v1")
        store.put("key", b"v2")
        assert store.get("key") == b"v2"

    def test_get_missing_raises(self, store):
        with pytest.raises(NotFoundError):
            store.get("missing")

    def test_get_range(self, store):
        store.put("k", b"0123456789")
        assert store.get_range("k", 3, 4) == b"3456"
        assert store.get_range("k", 8, 10) == b"89"
        assert store.get_range("k", 50, 10) == b""

    def test_get_range_negative_rejected(self, store):
        store.put("k", b"abc")
        with pytest.raises(ValueError):
            store.get_range("k", -1, 2)

    def test_head(self, store):
        store.put("k", b"abcd")
        assert store.head("k") == 4

    def test_delete_idempotent(self, store):
        store.put("k", b"v")
        store.delete("k")
        store.delete("k")  # no error, like S3
        assert not store.exists("k")

    def test_copy(self, store):
        store.put("src", b"data")
        store.copy("src", "dst")
        assert store.get("dst") == b"data"
        assert store.get("src") == b"data"

    def test_list_keys(self, store):
        for k in ["a/1", "a/2", "b/1"]:
            store.put(k, b"x")
        assert store.list_keys("a/") == ["a/1", "a/2"]
        assert store.list_keys() == ["a/1", "a/2", "b/1"]

    def test_used_bytes(self, store):
        store.put("a", b"xx")
        store.put("b", b"yyy")
        assert store.used_bytes() == 5


class TestAccounting:
    def test_requests_charge_rtt(self):
        clock = SimClock()
        store = CloudObjectStore(clock)
        store.put("k", b"v")
        t = clock.now
        assert t >= store.model.write_latency
        store.get("k")
        assert clock.now > t

    def test_ranged_get_cheaper_than_full(self):
        clock = SimClock()
        store = CloudObjectStore(clock)
        store.put("k", b"x" * 10_000_000)
        t0 = clock.now
        store.get_range("k", 0, 4096)
        ranged = clock.now - t0
        t1 = clock.now
        store.get("k")
        full = clock.now - t1
        assert ranged < full / 5

    def test_counters(self, store):
        store.put("k", b"12345")
        store.get("k")
        store.get_range("k", 0, 2)
        assert store.counters.get("cloud.put_ops") == 1
        assert store.counters.get("cloud.put_bytes") == 5
        assert store.counters.get("cloud.get_ops") == 2
        assert store.counters.get("cloud.get_bytes") == 7


class TestRetries:
    def test_transient_fault_retried(self):
        clock = SimClock()
        faults = FaultInjector()
        store = CloudObjectStore(clock, faults=faults)
        store.put("k", b"v")
        faults.schedule_failure("throttle")
        assert store.get("k") == b"v"  # retried transparently
        assert store.counters.get("cloud.retries") == 1

    def test_retry_charges_backoff_time(self):
        clock = SimClock()
        faults = FaultInjector()
        retry = RetryPolicy(initial_backoff=0.5)
        store = CloudObjectStore(clock, faults=faults, retry=retry)
        store.put("k", b"v")
        t0 = clock.now
        store.get("k")
        clean = clock.now - t0
        faults.schedule_failure()
        t1 = clock.now
        store.get("k")
        faulty = clock.now - t1
        assert faulty >= clean + 0.5

    def test_exhausted_retries_raise(self):
        faults = FaultInjector()
        retry = RetryPolicy(max_attempts=3, initial_backoff=0.001)
        store = CloudObjectStore(SimClock(), faults=faults, retry=retry)
        store.put("k", b"v")
        for _ in range(3):
            faults.schedule_failure()
        with pytest.raises(IOErrorSim):
            store.get("k")


class TestMutatingOpAccounting:
    """Audit every mutating op against the cost model's inputs.

    ``CostModel.request_cost`` bills ``cloud.put_ops``; ``storage_cost``
    bills ``used_bytes()``. Each mutating request must keep both honest —
    the server-side ``copy`` historically incremented ``put_ops`` without
    ``put_bytes``/storage for the duplicated object.
    """

    def test_put(self, store):
        store.put("k", b"12345")
        assert store.counters.get("cloud.put_ops") == 1
        assert store.counters.get("cloud.put_bytes") == 5
        assert store.used_bytes() == 5

    def test_delete(self, store):
        store.put("k", b"12345")
        store.delete("k")
        assert store.counters.get("cloud.delete_ops") == 1
        assert store.counters.get("cloud.put_ops") == 1  # unchanged
        assert store.used_bytes() == 0

    def test_copy(self, store):
        store.put("src", b"abcdef")
        store.copy("src", "dst")
        # One PUT request whose stored bytes count; no egress.
        assert store.counters.get("cloud.put_ops") == 2
        assert store.counters.get("cloud.put_bytes") == 12
        assert store.counters.get("cloud.copy_bytes") == 6
        assert store.counters.get("cloud.get_bytes") == 0
        assert store.used_bytes() == 12

    def test_head_and_list_are_not_puts(self, store):
        store.put("k", b"xy")
        store.head("k")
        store.list_keys()
        assert store.counters.get("cloud.put_ops") == 1
        assert store.counters.get("cloud.head_ops") == 1
        assert store.counters.get("cloud.list_ops") == 1


class TestCrashSemantics:
    def test_crash_keeps_completed_objects(self):
        """Uploads are whole-object PUTs, so a client crash has nothing in
        flight on the cloud side: every object is still there, byte for
        byte, after the store reopens from a crash."""
        store = RocksMashStore.create(StoreConfig().small())
        for i in range(800):
            store.put(f"k{i:05d}".encode(), b"v" * 64, sync=False)
        store.flush()
        store.compact_range()
        cloud = store.cloud_store
        before = {key: cloud.get(key) for key in cloud.list_keys()}
        assert before
        store.reopen(crash=True)
        assert {key: cloud.get(key) for key in before} == before


class TestOpPrefixFilter:
    def test_faults_only_hit_matching_ops(self):
        faults = FaultInjector(error_rate=1.0, seed=1, op_prefixes=("cloud.put",))
        store = CloudObjectStore(
            SimClock(), faults=faults, retry=RetryPolicy(max_attempts=2, initial_backoff=1e-4)
        )
        with pytest.raises(IOErrorSim):
            store.put("k", b"v")
        store._objects["k"] = b"v"  # place the object despite the write storm
        assert store.get("k") == b"v"  # reads never fail
        assert store.get_range("k", 0, 1) == b"v"
        assert faults.injected >= 2

    def test_fail_next_respects_filter(self):
        faults = FaultInjector(op_prefixes=("cloud.get",))
        store = CloudObjectStore(SimClock(), faults=faults)
        faults.schedule_failure("targeted")
        store.put("k", b"v")  # filtered out: the scheduled failure waits
        assert faults.fail_next  # still queued
        assert store.get("k") == b"v"  # retried transparently
        assert store.counters.get("cloud.retries") == 1

    def test_default_remains_uniform(self):
        faults = FaultInjector()
        assert faults.matches("local.sync(db/000001.log)")
        assert faults.matches("cloud.get(k)")
