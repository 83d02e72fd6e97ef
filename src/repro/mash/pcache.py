"""LSM-aware persistent cache on the local device (the paper's core design).

The cache has two regions, both persisted in append-only *slab* files on the
local device so contents survive restarts:

* **Metadata region** — the index and filter blocks of every cloud-resident
  SSTable, *pinned* until the table is deleted. Payloads are packed
  back-to-back in the slab (space-efficient: no per-file padding, no whole
  files — compare the rocksdb-cloud baseline, which keeps entire table
  files locally just to have their metadata nearby). With metadata always
  local, a point miss costs at most one cloud round trip instead of three
  (index + filter + data).
* **Data region** — popular data blocks, LRU-evicted under a byte budget.
  Admission and compaction-aware pre-warming are driven by
  :mod:`repro.mash.layout`.

Both regions use one self-describing record format, so a restart rebuilds
the in-memory index by scanning the slabs (a corrupt/unsynced tail is
truncated, like a WAL). Logical eviction leaves garbage in the slab; when
garbage exceeds half the slab the live entries are rewritten ("slab
compaction").
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import CorruptionError, NotFoundError
from repro.storage.local import LocalDevice
from repro.util.crc import mask, verify_masked_crc32
from repro.util.varint import decode_varint, encode_varint

_KIND_META = 0x4D  # 'M' — pinned metadata block (index/filter/footer)
_KIND_DATA = 0x44  # 'D' — evictable data block
_KIND_TOMB = 0x54  # 'T' — whole-file tombstone

# Metadata records reuse the block_offset field as a kind disambiguator.
# Offset 3 once held a persisted sorted view; recovery skips such records.
_META_OFFSETS = {"index": 0, "filter": 1, "footer": 2}
_META_KINDS = {offset: kind for kind, offset in _META_OFFSETS.items()}

SLAB_GARBAGE_RATIO = 0.5
"""Rewrite the slab when dead bytes exceed this fraction of it."""


@dataclass(frozen=True)
class PCacheConfig:
    """Persistent-cache knobs."""

    prefix: str = "pcache/"
    data_budget_bytes: int = 4 << 20
    """Byte budget for cached data-block payloads (metadata is unbounded —
    it is small by construction and pinning it is the design point)."""

    sync_every_n_appends: int = 16
    """Fsync cadence for slab appends; a crash loses at most this many
    unsynced admissions (harmless: it is a cache)."""


_Entry = tuple[int, int]
"""``(offset of the payload within the slab file, payload length)``."""


@dataclass
class PCacheStats:
    meta_hits: int = 0
    meta_misses: int = 0
    data_hits: int = 0
    data_misses: int = 0
    admissions: int = 0
    evictions: int = 0
    slab_compactions: int = 0
    recovered_entries: int = 0


def _encode_record(kind: int, name: bytes, block_offset: int, payload: bytes) -> tuple[bytes, int]:
    """Serialize one slab record; returns (record_bytes, payload_pos_in_record).

    ``kind · masked crc32(prefix + payload) · prefix · payload`` with prefix =
    ``varint(len(name)) · name · varint(block_offset) · varint(len(payload))``;
    the CRC is chained over the two parts, so the payload is copied once.
    """
    prefix = b"".join(
        (encode_varint(len(name)), name, encode_varint(block_offset), encode_varint(len(payload)))
    )
    crc = mask(zlib.crc32(payload, zlib.crc32(prefix)))
    record = b"".join((bytes((kind,)), crc.to_bytes(4, "little"), prefix, payload))
    return record, 5 + len(prefix)


class PersistentCache:
    """The on-device persistent cache. Use :meth:`open` to (re)build one."""

    SLAB = "cache.slab"

    def __init__(self, device: LocalDevice, config: PCacheConfig | None = None) -> None:
        self.device = device
        self.config = config or PCacheConfig()
        self.stats = PCacheStats()
        self._slab_name = self.config.prefix + self.SLAB
        self._meta: dict[tuple[str, str], _Entry] = {}
        self._data: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        self._data_offsets: dict[str, set[int]] = {}  # file -> offsets in _data, for drop_file
        self._slab_size = 0
        self._live_bytes = 0
        self._data_bytes = 0
        self._meta_bytes = 0
        self._pending_appends = 0

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, device: LocalDevice, config: PCacheConfig | None = None) -> "PersistentCache":
        """Create a cache, recovering contents from an existing slab."""
        cache = cls(device, config)
        if device.exists(cache._slab_name):
            cache._recover()
        else:
            device.create(cache._slab_name)
            device.sync(cache._slab_name)
        return cache

    def _recover(self) -> None:
        data = self.device.read(self._slab_name)
        pos = 0
        n = len(data)
        valid_upto = 0
        dropped: set[str] = set()
        while pos + 5 <= n:
            kind = data[pos]
            stored_crc = int.from_bytes(data[pos + 1 : pos + 5], "little")
            try:
                body_start = pos + 5
                name_len, cursor = decode_varint(data, body_start)
                name = data[cursor : cursor + name_len].decode()
                cursor += name_len
                block_offset, cursor = decode_varint(data, cursor)
                payload_len, cursor = decode_varint(data, cursor)
                payload_start = cursor
                end = payload_start + payload_len
                if end > n:
                    break
                if not verify_masked_crc32(bytes(data[body_start:end]), stored_crc):
                    break
            except (CorruptionError, UnicodeDecodeError):
                # A torn/garbage tail parses as a truncated varint or a
                # non-UTF-8 name; stop the scan at the last valid record.
                # Never broader: CrashPointFired must propagate.
                break
            if kind == _KIND_TOMB:
                dropped.add(name)
                self._forget_file(name)
            elif kind == _KIND_META:
                dropped.discard(name)
                kind_str = _META_KINDS.get(block_offset)
                if kind_str is not None:
                    self._index_meta(name, kind_str, (payload_start, payload_len))
            elif kind == _KIND_DATA:
                dropped.discard(name)
                self._index_data(name, block_offset, (payload_start, payload_len))
            pos = end
            valid_upto = end
        self._slab_size = valid_upto
        self.stats.recovered_entries = len(self._meta) + len(self._data)
        self._enforce_budget()
        # A torn tail means the durable file may extend past valid_upto with
        # garbage; rewriting the slab restores the clean-append invariant.
        if valid_upto != n:
            self._compact_slab()

    def close(self) -> None:
        self.sync()

    # -- write plumbing ----------------------------------------------------------

    def _append_record(self, kind: int, name: str, block_offset: int, payload: bytes) -> _Entry:
        record, payload_pos = _encode_record(kind, name.encode(), block_offset, payload)
        entry = (self._slab_size + payload_pos, len(payload))
        self.device.append(self._slab_name, record)
        self._slab_size += len(record)
        self._pending_appends += 1
        if self._pending_appends >= self.config.sync_every_n_appends:
            self.sync()
        return entry

    def sync(self) -> None:
        """Flush pending slab appends to durable storage."""
        if self._pending_appends:
            self.device.sync(self._slab_name)
            self._pending_appends = 0

    # -- metadata region -------------------------------------------------------------

    def put_meta(self, file_name: str, kind: str, payload: bytes) -> None:
        """Pin an "index", "filter", or "footer" payload for a table."""
        if kind not in _META_OFFSETS:
            raise ValueError(f"unknown metadata kind {kind!r}")
        if (file_name, kind) in self._meta:
            return
        entry = self._append_record(
            _KIND_META, file_name, _META_OFFSETS[kind], payload
        )
        self._index_meta(file_name, kind, entry)
        self.stats.admissions += 1

    def _index_meta(self, file_name: str, kind: str, entry: _Entry) -> None:
        old = self._meta.get((file_name, kind))
        if old is not None:
            self._live_bytes -= old[1]
            self._meta_bytes -= old[1]
        self._meta[(file_name, kind)] = entry
        self._live_bytes += entry[1]
        self._meta_bytes += entry[1]

    def get_meta(self, file_name: str, kind: str) -> bytes | None:
        entry = self._meta.get((file_name, kind))
        if entry is None:
            self.stats.meta_misses += 1
            return None
        self.stats.meta_hits += 1
        return self._read_entry(entry)

    # -- data region ------------------------------------------------------------------

    def put_data(self, file_name: str, block_offset: int, payload: bytes) -> None:
        """Admit a data block the first time it is offered; may evict LRU
        victims to stay under budget."""
        if len(payload) > self.config.data_budget_bytes:
            return
        key = (file_name, block_offset)
        if key in self._data:
            self._data.move_to_end(key)
            return
        entry = self._append_record(_KIND_DATA, file_name, block_offset, payload)
        self._index_data(file_name, block_offset, entry)
        self.stats.admissions += 1
        self._enforce_budget()
        self._maybe_compact_slab()

    def _index_data(self, file_name: str, block_offset: int, entry: _Entry) -> None:
        key = (file_name, block_offset)
        old = self._data.pop(key, None)
        if old is not None:
            self._live_bytes -= old[1]
            self._data_bytes -= old[1]
        else:
            self._data_offsets.setdefault(file_name, set()).add(block_offset)
        self._data[key] = entry
        self._live_bytes += entry[1]
        self._data_bytes += entry[1]

    def get_data(self, file_name: str, block_offset: int) -> bytes | None:
        key = (file_name, block_offset)
        entry = self._data.get(key)
        if entry is None:
            self.stats.data_misses += 1
            return None
        self._data.move_to_end(key)
        self.stats.data_hits += 1
        return self._read_entry(entry)

    def contains_data(self, file_name: str, block_offset: int) -> bool:
        """Presence check without touching LRU order or hit counters."""
        return (file_name, block_offset) in self._data

    def _read_entry(self, entry: _Entry) -> bytes:
        # Unsynced appends are readable too (page cache semantics).
        return self.device.read(self._slab_name, *entry)

    # -- invalidation ------------------------------------------------------------------

    def drop_file(self, file_name: str) -> None:
        """Invalidate every block of a deleted SSTable (persistently); a file
        the cache holds nothing of costs no tombstone."""
        if file_name not in self._data_offsets and not any(
            (file_name, kind) in self._meta for kind in _META_OFFSETS
        ):
            return
        self._append_record(_KIND_TOMB, file_name, 0, b"")
        self._forget_file(file_name)
        self._maybe_compact_slab()

    def _forget_file(self, file_name: str) -> None:
        for kind in _META_OFFSETS:
            entry = self._meta.pop((file_name, kind), None)
            if entry is not None:
                self._live_bytes -= entry[1]
                self._meta_bytes -= entry[1]
        for block_offset in self._data_offsets.pop(file_name, ()):
            length = self._data.pop((file_name, block_offset))[1]
            self._live_bytes -= length
            self._data_bytes -= length

    # -- budget & slab hygiene -------------------------------------------------------------

    def _enforce_budget(self) -> None:
        while self._data_bytes > self.config.data_budget_bytes and self._data:
            (file_name, block_offset), (_, length) = self._data.popitem(last=False)
            offsets = self._data_offsets[file_name]
            offsets.discard(block_offset)
            if not offsets:
                del self._data_offsets[file_name]
            self._live_bytes -= length
            self._data_bytes -= length
            self.stats.evictions += 1

    def _maybe_compact_slab(self) -> None:
        garbage = self._slab_size - self._live_bytes
        if self._slab_size < (64 << 10):
            return
        if garbage / self._slab_size <= SLAB_GARBAGE_RATIO:
            return
        self._compact_slab()

    def _compact_slab(self) -> None:
        """Rewrite live entries into a fresh slab, dropping garbage."""
        self.sync()
        live_meta = {
            key: self._read_entry(entry) for key, entry in self._meta.items()
        }
        live_data = {
            key: self._read_entry(entry) for key, entry in self._data.items()
        }
        try:
            self.device.delete(self._slab_name)
        except NotFoundError:
            pass
        self.device.create(self._slab_name)
        self._slab_size = 0
        self._live_bytes = self._data_bytes = self._meta_bytes = 0
        self._meta = {}
        self._data = OrderedDict()  # refilled in the same (LRU) order
        for (file_name, kind), payload in live_meta.items():
            entry = self._append_record(_KIND_META, file_name, _META_OFFSETS[kind], payload)
            self._index_meta(file_name, kind, entry)
        for (file_name, block_offset), payload in live_data.items():
            entry = self._append_record(_KIND_DATA, file_name, block_offset, payload)
            self._index_data(file_name, block_offset, entry)
        self.sync()
        self.stats.slab_compactions += 1

    # -- accounting -------------------------------------------------------------------------

    @property
    def meta_bytes(self) -> int:
        """Pinned metadata payload bytes (the E5 space-efficiency metric)."""
        return self._meta_bytes

    @property
    def data_bytes(self) -> int:
        return self._data_bytes

    @property
    def slab_bytes(self) -> int:
        """Physical slab footprint on the device (live + garbage)."""
        return self._slab_size

    def __len__(self) -> int:
        return len(self._meta) + len(self._data)
