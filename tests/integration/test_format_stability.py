"""On-disk bytes are pinned: what this tree writes is what PR 22's tree wrote.

PR 23 deleted a second filter layout, a second admission rule and the view's
point-lookup path without touching a format. The digests below hash, with
their names, every byte of every file the store leaves on either tier, in two
parts: the tables, the MANIFEST and the xWAL shards in one, the persistent
cache's slab in the other. Equal table digests mean a store written on either
side of a change opens on the other; the reopen at the end reads it back.
A change that means to move a format re-records them and says so.

``TABLES_DIGEST`` was recorded by running this file's workload on the commit
before compaction stopped reading through the block caches (``3253522``,
where the one digest over both parts still matched the first recording), and
that change left it equal. ``SLAB_DIGEST`` was re-recorded with the change, on
purpose: compaction's input reads no longer admit blocks to the persistent
cache, so the slab holds other blocks; its format is unchanged.
"""

import hashlib
from dataclasses import replace

from repro.mash.store import RocksMashStore, StoreConfig

TABLES_DIGEST = "dfa4d4855026fc35e26cd9529eb66f379d70bf193620efe588174f6f6aba570e"
SLAB_DIGEST = "343e58da1f0cf50a53beeec2d296021f01c26b58a3c5e007696d15a25659dfb4"


def bytes_on_both_tiers(store) -> tuple[str, str]:
    """``(tables, MANIFEST and logs; persistent-cache slab)`` digests."""
    tables, slab = hashlib.sha256(), hashlib.sha256()
    pcache_prefix = store.config.pcache.prefix
    for name in sorted(store.local_device.list_files()):
        digest = slab if name.startswith(pcache_prefix) else tables
        digest.update(b"local:" + name.encode() + b"\0" + store.local_device.read(name))
    for key in sorted(store.cloud_store.list_keys()):
        tables.update(b"cloud:" + key.encode() + b"\0" + store.cloud_store.get(key))
    return tables.hexdigest(), slab.hexdigest()


def test_store_bytes_match_the_parent_commit():
    config = StoreConfig().small()
    config = replace(config, placement=replace(config.placement, cloud_level=1))
    store = RocksMashStore.create(config)
    model = {}
    for step in range(900):
        key = b"key%04d" % (step * 7 % 250)
        if step % 13 == 5:
            store.delete(key)
            model.pop(key, None)
        else:
            model[key] = b"v%d|" % step * 6
            store.put(key, model[key])
    store.flush()
    for key in sorted(model)[::5]:  # cloud reads fill the slab's data region
        assert store.get(key) == model[key]
    store.close()
    assert store.cloud_store.list_keys(), "nothing was demoted: the fixture is too small"
    assert bytes_on_both_tiers(store) == (TABLES_DIGEST, SLAB_DIGEST)
    reopened = store.reopen()
    assert dict(reopened.scan()) == model
    reopened.close()
