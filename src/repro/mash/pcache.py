"""LSM-aware persistent cache on the local device (the paper's core design).

The cache has two regions, each persisted in its own append-only *log* of
segment files on the local device so contents survive restarts:

* **Metadata region** — the index and filter blocks of every cloud-resident
  SSTable, *pinned* until the table is deleted. Payloads are packed
  back-to-back in the metadata log (space-efficient: no per-file padding, no
  whole files — compare the rocksdb-cloud baseline, which keeps entire table
  files locally just to have their metadata nearby). With metadata always
  local, a point miss costs at most one cloud round trip instead of three
  (index + filter + data).
* **Data region** — popular data blocks, LRU-evicted under a byte budget.
  Admission and compaction-aware pre-warming are driven by
  :mod:`repro.mash.layout`. Admission is best-effort: a full device skips it.

Both logs use one self-describing record format, so a restart rebuilds the
in-memory index by scanning the segments in order (a corrupt/unsynced tail
ends its segment, like a WAL; appends go on in a fresh one). The index, not
the logs, decides what is cached: eviction and invalidation only leave
garbage behind. A log holding more than 1.5× its live bytes (the data log:
its data budget) is *cleaned* oldest segment first — one sequential
read, the still-live records copied forward as raw bytes, the file deleted.
Oldest-first keeps tombstones sound: one is dropped only once every older
segment, which could hold what it kills, is gone.
"""

from __future__ import annotations

import zlib
from collections import Counter, OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import CorruptionError, DeviceFullError
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

SLAB_GARBAGE_RATIO = 1 / 3
"""Clean a log's oldest segment when dead bytes exceed this fraction of it,
so a log holds at most 1.5× its live bytes (the data log: its budget)."""

SEGMENTS_PER_BUDGET = 4
"""A segment is sealed once it holds the data budget over this."""


@dataclass(frozen=True)
class PCacheConfig:
    """Persistent-cache knobs."""

    prefix: str = "pcache/"
    data_budget_bytes: int = 4 << 20
    """Byte budget for cached data-block payloads (metadata is unbounded —
    it is small by construction and pinning it is the design point)."""

    sync_every_n_appends: int = 16
    """Fsync cadence of each log; a crash loses at most this many unsynced
    appends of each (harmless: it is a cache)."""


_Entry = tuple[str, int, int, int]
"""``(segment file, payload offset in it, payload length, record length)``."""


@dataclass
class PCacheStats:
    meta_hits: int = 0
    meta_misses: int = 0
    data_hits: int = 0
    data_misses: int = 0
    admissions: int = 0
    evictions: int = 0
    segment_cleanings: int = 0
    full_device_skips: int = 0
    """Data admissions and cleanings skipped because the device was full."""
    recovered_entries: int = 0


def _encode_record(kind: int, name: bytes, block_offset: int, payload: bytes) -> tuple[bytes, int]:
    """Serialize one record; returns (record_bytes, payload_pos_in_record).

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


def _records(data: bytes) -> Iterator[tuple[int, str, int, int, int, int]]:
    """``(kind, name, block_offset, record start, payload start, end)`` of each
    whole record of a segment, up to the first torn or corrupt one."""
    pos = 0
    n = len(data)
    while pos + 5 <= n:
        stored_crc = int.from_bytes(data[pos + 1 : pos + 5], "little")
        try:
            name_len, cursor = decode_varint(data, pos + 5)
            name = data[cursor : cursor + name_len].decode()
            cursor += name_len
            block_offset, cursor = decode_varint(data, cursor)
            payload_len, payload_start = decode_varint(data, cursor)
            end = payload_start + payload_len
            if end > n or not verify_masked_crc32(data[pos + 5 : end], stored_crc):
                return
        except (CorruptionError, UnicodeDecodeError):
            # A torn/garbage tail parses as a truncated varint or a
            # non-UTF-8 name; stop the scan at the last valid record.
            # Never broader: CrashPointFired must propagate.
            return
        yield data[pos], name, block_offset, pos, payload_start, end
        pos = end


@dataclass
class _Log:
    """One append-only log: its segment files, oldest first, and their sizes."""

    tag: str
    segments: dict[str, int] = field(default_factory=dict)
    size: int = 0  # of all its segments
    active: str | None = None  # the segment appends go to
    pending: int = 0  # unsynced appends to it


class PersistentCache:
    """The on-device persistent cache. Use :meth:`open` to (re)build one."""

    def __init__(self, device: LocalDevice, config: PCacheConfig | None = None) -> None:
        self.device = device
        self.config = config or PCacheConfig()
        self.stats = PCacheStats()
        self._meta_log = _Log("meta")
        self._data_log = _Log("data")
        self._next_segment = 1
        self._segment_bytes = self.config.data_budget_bytes // SEGMENTS_PER_BUDGET
        self._meta: dict[tuple[str, str], _Entry] = {}
        self._data: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        self._data_offsets: dict[str, set[int]] = {}  # file -> offsets in _data, for drop_file
        self._live: Counter[str] = Counter()  # segment -> record bytes of the entries in it
        self._data_bytes = 0
        self._meta_bytes = 0

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, device: LocalDevice, config: PCacheConfig | None = None) -> "PersistentCache":
        """Create a cache, recovering contents from existing segments."""
        cache = cls(device, config)
        cache._recover()
        return cache

    def _recover(self) -> None:
        prefix = self.config.prefix
        found: list[tuple[int, int, str]] = []
        for name in self.device.list_files(prefix):
            tag, _, number = name[len(prefix) :].partition(".")
            if tag in ("meta", "data"):
                found.append((1 if tag == "data" else 2, int(number), name))
                self._next_segment = max(self._next_segment, int(number) + 1)
        # The data log first, then the metadata log: a metadata tombstone
        # then also drops the file's blocks, evicted ones included.
        for rank, _, name in sorted(found):
            log = self._data_log if rank == 1 else self._meta_log
            data = self.device.read(name)
            valid_upto = 0
            for kind, file_name, block_offset, start, payload_start, valid_upto in _records(data):
                entry = (name, payload_start, valid_upto - payload_start, valid_upto - start)
                if kind == _KIND_TOMB:
                    self._forget_file(file_name)
                elif kind == _KIND_DATA:
                    self._index_data(file_name, block_offset, entry)
                elif block_offset in _META_KINDS:
                    self._index_meta(file_name, _META_KINDS[block_offset], entry)
            log.segments[name] = len(data)
            log.size += len(data)
            # A torn tail ends its segment: appends go on in a fresh one.
            log.active = name if valid_upto == len(data) else None
        self.stats.recovered_entries = len(self._meta) + len(self._data)
        self._enforce_budget()

    def close(self) -> None:
        self.sync()

    # -- write plumbing ----------------------------------------------------------

    def _append(self, log: _Log, record: bytes, payload_pos: int) -> _Entry:
        """Append one encoded record to ``log``; a sealed active segment is
        replaced first, once its appends are synced."""
        name = log.active
        if name is None or (log.segments[name] >= self._segment_bytes and not log.pending):
            name = f"{self.config.prefix}{log.tag}.{self._next_segment:06d}"
            self.device.create(name)
            self._next_segment += 1
            log.segments[name] = 0
            log.active = name
        self.device.append(name, record)
        size = len(record)
        offset = log.segments[name]
        log.segments[name] = offset + size
        log.size += size
        log.pending += 1
        if log.pending >= self.config.sync_every_n_appends:
            self._sync_log(log)
        return name, offset + payload_pos, size - payload_pos, size

    def _sync_log(self, log: _Log) -> None:
        if log.pending and log.active is not None:
            self.device.sync(log.active)
            log.pending = 0

    def sync(self) -> None:
        """Flush pending log appends to durable storage."""
        self._sync_log(self._meta_log)
        self._sync_log(self._data_log)

    # -- metadata region -------------------------------------------------------------

    def put_meta(self, file_name: str, kind: str, payload: bytes) -> None:
        """Pin an "index", "filter", or "footer" payload for a table. A full
        device skips the pin: the table then opens from its own file."""
        if kind not in _META_OFFSETS:
            raise ValueError(f"unknown metadata kind {kind!r}")
        if (file_name, kind) in self._meta:
            return
        offset = _META_OFFSETS[kind]
        record, payload_pos = _encode_record(_KIND_META, file_name.encode(), offset, payload)
        try:
            entry = self._append(self._meta_log, record, payload_pos)
        except DeviceFullError:
            self.stats.full_device_skips += 1
            return
        self._index_meta(file_name, kind, entry)
        self.stats.admissions += 1

    def _index_meta(self, file_name: str, kind: str, entry: _Entry) -> None:
        old = self._meta.get((file_name, kind))
        if old is not None:
            self._meta_bytes -= old[2]
            self._live[old[0]] -= old[3]
        self._meta[(file_name, kind)] = entry
        self._meta_bytes += entry[2]
        self._live[entry[0]] += entry[3]

    def get_meta(self, file_name: str, kind: str) -> bytes | None:
        entry = self._meta.get((file_name, kind))
        if entry is None:
            self.stats.meta_misses += 1
            return None
        self.stats.meta_hits += 1
        return self.device.read(entry[0], entry[1], entry[2])

    # -- data region ------------------------------------------------------------------

    def put_data(self, file_name: str, block_offset: int, payload: bytes) -> None:
        """Admit a data block the first time it is offered; may evict LRU
        victims to stay under budget. A full device skips the admission."""
        if len(payload) > self.config.data_budget_bytes:
            return
        key = (file_name, block_offset)
        if key in self._data:
            self._data.move_to_end(key)
            return
        record, payload_pos = _encode_record(_KIND_DATA, file_name.encode(), block_offset, payload)
        try:
            entry = self._append(self._data_log, record, payload_pos)
        except DeviceFullError:
            self.stats.full_device_skips += 1
            return
        self._index_data(file_name, block_offset, entry)
        self.stats.admissions += 1
        self._enforce_budget()
        self._maybe_clean(self._data_log)

    def _index_data(self, file_name: str, block_offset: int, entry: _Entry) -> None:
        key = (file_name, block_offset)
        old = self._data.pop(key, None)
        if old is not None:
            self._data_bytes -= old[2]
            self._live[old[0]] -= old[3]
        else:
            self._data_offsets.setdefault(file_name, set()).add(block_offset)
        self._data[key] = entry
        self._data_bytes += entry[2]
        self._live[entry[0]] += entry[3]

    def get_data(self, file_name: str, block_offset: int) -> bytes | None:
        key = (file_name, block_offset)
        entry = self._data.get(key)
        if entry is None:
            self.stats.data_misses += 1
            return None
        self._data.move_to_end(key)
        self.stats.data_hits += 1
        # Unsynced appends are readable too (page cache semantics).
        return self.device.read(entry[0], entry[1], entry[2])

    # -- invalidation ------------------------------------------------------------------

    def drop_file(self, file_name: str) -> None:
        """Invalidate every block of a deleted SSTable (persistently); a file
        the cache holds nothing of costs no tombstone. It goes to each log
        that holds an entry of the file; recovery applies the metadata log's
        after the data log, so they also drop the file's evicted blocks."""
        logs = [self._data_log] if file_name in self._data_offsets else []
        if any((file_name, kind) in self._meta for kind in _META_OFFSETS):
            logs.append(self._meta_log)
        if not logs:
            return
        record, payload_pos = _encode_record(_KIND_TOMB, file_name.encode(), 0, b"")
        for log in logs:
            self._append(log, record, payload_pos)
        self._forget_file(file_name)
        self._maybe_clean(self._meta_log)
        self._maybe_clean(self._data_log)

    def _forget_file(self, file_name: str) -> None:
        for kind in _META_OFFSETS:
            entry = self._meta.pop((file_name, kind), None)
            if entry is not None:
                self._meta_bytes -= entry[2]
                self._live[entry[0]] -= entry[3]
        for block_offset in self._data_offsets.pop(file_name, ()):
            entry = self._data.pop((file_name, block_offset))
            self._data_bytes -= entry[2]
            self._live[entry[0]] -= entry[3]

    # -- budget & log cleaning -------------------------------------------------------------

    def _enforce_budget(self) -> None:
        while self._data_bytes > self.config.data_budget_bytes and self._data:
            (file_name, block_offset), entry = self._data.popitem(last=False)
            offsets = self._data_offsets[file_name]
            offsets.discard(block_offset)
            if not offsets:
                del self._data_offsets[file_name]
            self._data_bytes -= entry[2]
            self._live[entry[0]] -= entry[3]
            self.stats.evictions += 1

    def _maybe_clean(self, log: _Log) -> None:
        bound = SLAB_GARBAGE_RATIO * log.size
        floor = self.config.data_budget_bytes if log is self._data_log else 0  # of its live bytes
        if len(log.segments) > 1 and log.size - floor > bound:  # the cheap test first
            if log.size - sum(self._live[name] for name in log.segments) > bound:
                self._clean(log)

    def _clean(self, log: _Log) -> None:
        """Copy the oldest segment's live records forward, then delete it.

        Its tombstones go: every older segment is already gone. A crash
        before the delete leaves both copies of a record, and the newer one
        wins at recovery."""
        name = next(iter(log.segments))
        if self._live[name]:  # a segment with no live record is deleted unread
            try:
                self._copy_live(name, self.device.read(name))
            except DeviceFullError:
                self.stats.full_device_skips += 1
                return
            self.sync()
        self.device.delete(name)
        self._live.pop(name, None)
        log.size -= log.segments.pop(name)
        self.stats.segment_cleanings += 1

    def _copy_live(self, name: str, data: bytes) -> None:
        """Append each record of segment ``name`` the index still points at to
        its region's log; the entry moves in place, keeping its LRU position."""
        for kind, file_name, block_offset, start, payload_start, end in _records(data):
            entry = (name, payload_start, end - payload_start, end - start)
            data_key = (file_name, block_offset)
            meta_key = (file_name, _META_KINDS.get(block_offset, ""))
            record, pos = data[start:end], payload_start - start
            if kind == _KIND_DATA and self._data.get(data_key) == entry:
                self._data[data_key] = copy = self._append(self._data_log, record, pos)
            elif kind == _KIND_META and self._meta.get(meta_key) == entry:
                self._meta[meta_key] = copy = self._append(self._meta_log, record, pos)
            else:
                continue
            self._live[name] -= entry[3]
            self._live[copy[0]] += copy[3]

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
        """Device footprint of both logs (live + garbage)."""
        return self._meta_log.size + self._data_log.size
