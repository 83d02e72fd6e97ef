"""One restart for every system and the sharded node: ``StoreFacade.reopen``."""

import pytest

from repro.bench.harness import SYSTEMS, HarnessKnobs, make_store, rocksmash_config
from repro.errors import ClosedError
from repro.serve import ServeConfig, ShardedDB
from repro.workloads.generator import make_key

KEYS = [f"key{i:05d}".encode() for i in range(300)]


@pytest.mark.parametrize("crash", [True, False], ids=["crash", "clean"])
@pytest.mark.parametrize("system", SYSTEMS)
def test_a_stale_instance_fails_clearly(system, crash):
    """The replaced instance raises ``ClosedError`` on every call, before any
    I/O; a crashed one used to write into files the crash had dropped
    (``NotFoundError``). The new instance holds every synced write."""
    store = make_store(system)
    for key in KEYS:
        store.put(key, key * 4)
    recovered = store.reopen(crash=crash)
    before = store.counters.snapshot()
    for call in (
        lambda: store.put(b"late", b"v"),
        lambda: store.get(KEYS[0]),
        lambda: store.scan(KEYS[0], None, 10),
    ):
        with pytest.raises(ClosedError):
            call()
    assert store.counters.snapshot() == before
    assert type(recovered) is type(store)
    assert recovered.multi_get(KEYS) == {key: key * 4 for key in KEYS}


@pytest.mark.parametrize("crash", [True, False], ids=["crash", "clean"])
def test_a_sharded_node_restarts_like_a_store(crash):
    """A node is a facade too: ``reopen`` abandons or closes every shard and
    rebuilds them all over the shared devices."""
    keys = [make_key(i) for i in range(400)]
    node = ShardedDB.create(
        ServeConfig(base=rocksmash_config(HarnessKnobs()), num_shards=2, key_space=len(keys))
    )
    for key in keys:
        node.put(key, key * 4)
    recovered = node.reopen(crash=crash)
    before = node.counters.snapshot()
    for call in (
        lambda: node.put(b"late", b"v"),
        lambda: node.get(keys[0]),
        lambda: node.scan(keys[0], None, 10),
    ):
        with pytest.raises(ClosedError):
            call()
    assert node.counters.snapshot() == before
    assert type(recovered) is ShardedDB
    assert recovered.last_recovery_seconds > 0
    assert recovered.multi_get(keys) == {key: key * 4 for key in keys}
