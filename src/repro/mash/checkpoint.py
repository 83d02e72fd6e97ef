"""Checkpoints: consistent snapshots of a store in the cloud, cheap clones.

A major operational payoff of keeping the LSM bulk in an object store is
that a *checkpoint* is almost free: SSTables are immutable objects, so
snapshotting the store means (a) flushing the memtable, (b) server-side
copying the live tables into a checkpoint namespace (no egress; local-tier
tables are uploaded once), and (c) writing one small checkpoint manifest
object. Restoring — on the same machine or a brand-new node with an empty
local device — server-side copies the tables into the new store's
namespace and fabricates a MANIFEST/CURRENT locally; data never leaves the
cloud. This mirrors rocksdb-cloud's "zero-copy clone" capability and rounds
out the paper's reliability story.

Checkpoint layout in the object store::

    checkpoints/<name>/MANIFEST        one framed VersionEdit snapshot
    checkpoints/<name>/NNNNNN.sst      copies of every live table
    checkpoints/<name>/NNNNNN.blob     copies of every live blob segment
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import NotFoundError, RecoveryError
from repro.lsm.format import (
    blob_file_name,
    current_file_name,
    manifest_file_name,
    table_file_name,
)
from repro.lsm.version import VersionEdit
from repro.lsm.wal import LogReader, LogWriter
from repro.sim.failure import crash_points
from repro.storage.cloud import CloudObjectStore
from repro.storage.env import CLOUD
from repro.storage.local import LocalDevice
from repro.util.crc import masked_crc32
from repro.util.encoding import encode_fixed32

if TYPE_CHECKING:
    from repro.mash.store import RocksMashStore, StoreConfig

CHECKPOINT_PREFIX = "checkpoints/"


@dataclass(frozen=True)
class CheckpointInfo:
    """Summary of a created checkpoint."""

    name: str
    num_tables: int
    total_bytes: int
    uploaded_bytes: int
    """Bytes that had to be uploaded from the local tier (the rest were
    server-side copies of objects already in the cloud)."""
    last_sequence: int


def _checkpoint_manifest_key(name: str) -> str:
    return f"{CHECKPOINT_PREFIX}{name}/MANIFEST"


def _checkpoint_table_key(name: str, number: int) -> str:
    return f"{CHECKPOINT_PREFIX}{name}/{number:06d}.sst"


def _checkpoint_blob_key(name: str, number: int) -> str:
    return f"{CHECKPOINT_PREFIX}{name}/{number:06d}.blob"


def create_checkpoint(store: RocksMashStore, name: str) -> CheckpointInfo:
    """Snapshot a RocksMash store into the cloud under ``name``.

    The store keeps running; the checkpoint captures everything written
    before the call (the memtable is flushed first so no WAL needs to be
    included).
    """
    if "/" in name or not name:
        raise ValueError(f"invalid checkpoint name {name!r}")
    if store.cloud_store.exists(_checkpoint_manifest_key(name)):
        raise ValueError(f"checkpoint {name!r} already exists")
    store.flush()
    version = store.db.versions.current
    cloud = store.cloud_store

    snapshot = VersionEdit(
        log_number=0,
        next_file_number=store.db.versions.next_file_number,
        last_sequence=store.db.versions.last_sequence,
        # Without the brand a separated store's clone refuses to open.
        blob_separation=store.db.versions.blob_separation_enabled,
    )
    total = 0
    uploaded = 0
    count = 0
    for level, meta in version.all_files():
        snapshot.add_file(level, meta)
        src = table_file_name(store.db.prefix, meta.number)
        dst = _checkpoint_table_key(name, meta.number)
        if store.env.tier_of(src) == CLOUD:
            cloud.copy(src, dst)  # server-side, no egress
        else:
            cloud.put(dst, store.env.read_file(src))
            uploaded += meta.file_size
        total += meta.file_size
        count += 1
        # Some tables copied, manifest absent: the partial checkpoint must
        # be invisible to list/restore and harmless to the live store.
        crash_points.reach("checkpoint.mid_copy")

    # Blob segments referenced by the snapshotted tables ride along; the
    # flush above sealed the active segment, so every live pointer targets
    # a manifest-recorded (cloud-resident) segment.
    for number, (seg_total, seg_dead) in sorted(store.db.versions.blob_segments.items()):
        snapshot.set_blob_segment(number, seg_total, seg_dead)
        src = blob_file_name(store.db.prefix, number)
        dst = _checkpoint_blob_key(name, number)
        if store.env.tier_of(src) == CLOUD:
            cloud.copy(src, dst)  # server-side, no egress
        else:
            cloud.put(dst, store.env.read_file(src))
            uploaded += seg_total
        total += seg_total
        crash_points.reach("checkpoint.mid_copy")

    crash_points.reach("checkpoint.before_manifest")
    payload = snapshot.encode()
    framed = encode_fixed32(masked_crc32(payload)) + encode_fixed32(len(payload)) + payload
    cloud.put(_checkpoint_manifest_key(name), framed)
    return CheckpointInfo(
        name=name,
        num_tables=count,
        total_bytes=total,
        uploaded_bytes=uploaded,
        last_sequence=store.db.versions.last_sequence,
    )


def list_checkpoints(cloud: CloudObjectStore) -> list[str]:
    """Names of every *complete* checkpoint in the object store.

    The manifest object is the commit point: a crash mid-copy leaves table
    objects but no manifest, and that partial checkpoint must be invisible
    here just as it is unrestorable (``delete_checkpoint`` still reclaims
    its objects).
    """
    names = set()
    for key in cloud.list_keys(CHECKPOINT_PREFIX):
        rest = key[len(CHECKPOINT_PREFIX) :]
        name, _, tail = rest.partition("/")
        if tail == "MANIFEST":
            names.add(name)
    return sorted(names)


def delete_checkpoint(cloud: CloudObjectStore, name: str) -> int:
    """Remove a checkpoint's objects; returns how many were deleted."""
    keys = cloud.list_keys(f"{CHECKPOINT_PREFIX}{name}/")
    for key in keys:
        cloud.delete(key)
    return len(keys)


def restore_checkpoint(cloud: CloudObjectStore, name: str, config: StoreConfig) -> RocksMashStore:
    """Materialize a new RocksMash store from checkpoint ``name``.

    Tables are server-side copied into the new store's namespace (still in
    the cloud — no egress); the MANIFEST and CURRENT are fabricated on a
    fresh local device. Returns the opened store. The new store is fully
    independent: it can diverge from the source and from other restores.
    """
    from repro.mash.store import RocksMashStore  # avoid import cycle

    key = _checkpoint_manifest_key(name)
    if not cloud.exists(key):
        raise NotFoundError(f"checkpoint not found: {name}")
    records = list(LogReader(cloud.get(key)))
    if len(records) != 1:
        raise RecoveryError(f"checkpoint {name}: garbled manifest")
    snapshot = VersionEdit.decode(records[0])

    local_device = LocalDevice(
        cloud.clock, capacity_bytes=config.local_capacity_bytes, counters=cloud.counters
    )

    prefix = config.db_prefix
    # Tables and blob segments: cheap server-side copies into the new
    # namespace (the snapshot's blob entries make recovery adopt them).
    for _level, meta in snapshot.new_files:
        cloud.copy(_checkpoint_table_key(name, meta.number), table_file_name(prefix, meta.number))
    for number, _total, _dead in snapshot.blob_segments:
        cloud.copy(_checkpoint_blob_key(name, number), blob_file_name(prefix, number))
    # Fabricate the metadata chain on the local device.
    manifest_number = snapshot.next_file_number or 1
    snapshot.next_file_number = manifest_number + 1
    writer = LogWriter(
        _LocalFileShim(local_device, manifest_file_name(prefix, manifest_number))
    )
    writer.add_record(snapshot.encode())
    local_device.write_file(current_file_name(prefix), f"{manifest_number}".encode())

    return RocksMashStore(
        config,
        clock=cloud.clock,
        local_device=local_device,
        cloud_store=cloud,
        counters=cloud.counters,
        # Joins the tracer the shared cloud reports to, as a shard joins its
        # node's, rather than taking it away from the store it came from.
        tracer=cloud.tracer,
    )


class _LocalFileShim:
    """Minimal WritableFile over a LocalDevice (checkpoint-internal)."""

    def __init__(self, device: LocalDevice, name: str) -> None:
        self.device = device
        self.name = name
        device.create(name)

    def append(self, data: bytes) -> None:
        self.device.append(self.name, data)

    def sync(self) -> None:
        self.device.sync(self.name)

    def close(self) -> None:
        self.device.sync(self.name)
