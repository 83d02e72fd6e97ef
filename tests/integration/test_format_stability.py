"""On-disk bytes are pinned: what this tree writes is what PR 22's tree wrote.

PR 23 deleted a second filter layout, a second admission rule and the view's
point-lookup path without touching a format. The digests below were recorded
by running this file's workload on the parent commit (``0311d43``): every
byte of every file the store leaves on either tier — SSTables, the MANIFEST,
xWAL shards, the persistent cache's slab — hashed with its name. Equal
digests mean a store written on either side of that change opens on the
other; the reopen at the end reads it back.
A change that means to move a format re-records them and says so.
"""

import hashlib
from dataclasses import replace

from repro.mash.store import RocksMashStore, StoreConfig

DIGEST = "717139a2fd46cd044af343a4132f7e39ee506cbca84b19a80b40c73bfcb75ba0"


def bytes_on_both_tiers(store) -> str:
    digest = hashlib.sha256()
    for name in sorted(store.local_device.list_files()):
        digest.update(b"local:" + name.encode() + b"\0" + store.local_device.read(name))
    for key in sorted(store.cloud_store.list_keys()):
        digest.update(b"cloud:" + key.encode() + b"\0" + store.cloud_store.get(key))
    return digest.hexdigest()


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
    assert bytes_on_both_tiers(store) == DIGEST
    reopened = store.reopen()
    assert dict(reopened.scan()) == model
    reopened.close()
