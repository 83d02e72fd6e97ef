"""One restart for every system: ``StoreFacade.reopen``."""

import pytest

from repro.bench.harness import SYSTEMS, make_store
from repro.errors import ClosedError

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
