"""A data block that does not parse never occupies the DRAM block cache.

The cache holds parsed blocks, so ``Block.__init__`` has already accepted a
payload by the time it is inserted. The damage here passes the CRC (the
block is re-sealed after the edit, as a fault above the checksum would
leave it) and breaks the restart array; every reader of the block must see
``CorruptionError`` each time, and the cache must neither grow nor be
charged.
"""

import pytest

from repro.errors import CorruptionError
from repro.lsm.check import check_db
from repro.lsm.db import DB
from repro.lsm.format import BLOCK_TRAILER_SIZE, seal_block, table_file_name, unseal_block
from repro.lsm.options import Options
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice


def options():
    return Options(write_buffer_size=64 << 10, block_size=512, block_cache_bytes=16 << 10)


def damaged_store():
    """One 400-key table whose first data block claims 2**31 restart points."""
    env = LocalEnv(LocalDevice(SimClock()))
    db = DB.open(env, "db/", options())
    for i in range(400):
        db.put(b"k%04d" % i, b"v" * 40)
    db.flush()
    ((_, meta),) = db.versions.current.all_files()
    first = db.table_cache.get_reader(meta.number).edge_data_handle()
    db.close()
    name = table_file_name("db/", meta.number)
    data = bytearray(env.read_file(name))
    stored = slice(first.offset, first.offset + first.size + BLOCK_TRAILER_SIZE)
    payload = bytearray(unseal_block(bytes(data[stored])))
    payload[-4:] = (1 << 31).to_bytes(4, "little")
    data[stored] = seal_block(bytes(payload))
    env.delete_file(name)
    env.write_file(name, bytes(data))
    return env, name, DB.open(env, "db/", options())


def test_corrupt_block_reaches_every_reader_and_is_never_cached():
    env, name, db = damaged_store()
    cache = db.block_cache
    assert db.get(b"k0399") == b"v" * 40  # a healthy block: cached
    held = (len(cache._entries), cache._used)
    assert held[0] == 1

    for attempt in (1, 2):  # the second try misses again: nothing was cached
        with pytest.raises(CorruptionError, match="restart array"):
            db.get(b"k0000")
        assert (len(cache._entries), cache._used) == held
        assert cache.misses == 1 + attempt
    with pytest.raises(CorruptionError, match="restart array"):
        list(db.scan())
    with pytest.raises(CorruptionError, match="restart array"):
        list(db.scan(None, b"k0003"))
    assert (len(cache._entries), cache._used) == held
    assert db.get(b"k0399") == b"v" * 40
    db.close()

    report = check_db(env, "db/", options())
    assert not report.ok
    assert any(name in error and "restart array" in error for error in report.errors)
