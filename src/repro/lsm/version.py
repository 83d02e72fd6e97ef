"""Versioned file metadata: FileMetaData, VersionEdit, Version, VersionSet.

The LSM's file topology (which SSTables exist at which level, with which key
ranges) is an immutable :class:`Version`; every flush/compaction produces a
:class:`VersionEdit` that is appended to the MANIFEST log and applied to
yield the next Version — LevelDB's design. The MANIFEST reuses the WAL's
checksummed record framing; ``CURRENT`` names the live manifest.

This module is deliberately tier-agnostic: placement (local vs cloud) is the
Env's concern, so the same VersionSet serves every store variant.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import CorruptionError, RecoveryError
from repro.lsm.format import current_file_name, manifest_file_name
from repro.lsm.options import NUM_LEVELS, Options
from repro.lsm.wal import LogWriter, read_log_file
from repro.sim.failure import crash_points
from repro.storage.env import Env
from repro.util.encoding import extract_user_key, internal_order
from repro.util.varint import decode_varint, encode_varint, get_length_prefixed, put_length_prefixed

# VersionEdit field tags.
_TAG_LOG_NUMBER = 1
_TAG_NEXT_FILE = 2
_TAG_LAST_SEQUENCE = 3
_TAG_DELETED_FILE = 4
_TAG_NEW_FILE = 5
_TAG_BLOB_SEGMENT = 6
_TAG_BLOB_SEGMENT_DELETE = 7
_TAG_BLOB_SEPARATION = 8
_TAG_RETIRED_SORTED_VIEW = 9
"""Once recorded a persisted sorted view; read and discarded so a MANIFEST
holding it still opens."""


@dataclass(frozen=True)
class FileMetaData:
    """One immutable SSTable."""

    number: int
    file_size: int
    smallest: bytes  # internal key
    largest: bytes  # internal key

    # Sliced once per instance: lookups and scans read these per file per op.
    @cached_property
    def smallest_user_key(self) -> bytes:
        return extract_user_key(self.smallest)

    @cached_property
    def largest_user_key(self) -> bytes:
        return extract_user_key(self.largest)

    def overlaps_user_range(self, begin: bytes | None, end: bytes | None) -> bool:
        """Does [smallest, largest] intersect user-key range [begin, end]?

        ``None`` bounds are infinite.
        """
        if begin is not None and self.largest_user_key < begin:
            return False
        if end is not None and self.smallest_user_key > end:
            return False
        return True


@dataclass
class VersionEdit:
    """Delta between two versions, serialized into the MANIFEST."""

    log_number: int | None = None
    next_file_number: int | None = None
    last_sequence: int | None = None
    deleted_files: set[tuple[int, int]] = field(default_factory=set)  # (level, number)
    new_files: list[tuple[int, FileMetaData]] = field(default_factory=list)
    blob_segments: list[tuple[int, int, int]] = field(default_factory=list)
    """Blob-segment upserts: (number, total_bytes, dead_bytes). The GC's
    dead-byte counters ride the same edit as the compaction that dropped the
    pointers, so recovery replays them exactly."""
    deleted_blob_segments: set[int] = field(default_factory=set)
    blob_separation: bool = False
    """Brands the store as key-value separated. Written once when a store is
    created with separation enabled; its absence makes reopening with
    separation enabled refuse (a raw value stored verbatim while separation
    was off could start with the pointer magic and be misread as a pointer).
    The flag is sticky — never cleared once set."""

    def add_file(self, level: int, meta: FileMetaData) -> None:
        self.new_files.append((level, meta))

    def delete_file(self, level: int, number: int) -> None:
        self.deleted_files.add((level, number))

    def set_blob_segment(self, number: int, total: int, dead: int) -> None:
        self.blob_segments.append((number, total, dead))

    def delete_blob_segment(self, number: int) -> None:
        self.deleted_blob_segments.add(number)

    def encode(self) -> bytes:
        out = bytearray()
        if self.log_number is not None:
            out += encode_varint(_TAG_LOG_NUMBER) + encode_varint(self.log_number)
        if self.next_file_number is not None:
            out += encode_varint(_TAG_NEXT_FILE) + encode_varint(self.next_file_number)
        if self.last_sequence is not None:
            out += encode_varint(_TAG_LAST_SEQUENCE) + encode_varint(self.last_sequence)
        for level, number in sorted(self.deleted_files):
            out += encode_varint(_TAG_DELETED_FILE)
            out += encode_varint(level) + encode_varint(number)
        for level, meta in self.new_files:
            out += encode_varint(_TAG_NEW_FILE)
            out += encode_varint(level) + encode_varint(meta.number)
            out += encode_varint(meta.file_size)
            put_length_prefixed(out, meta.smallest)
            put_length_prefixed(out, meta.largest)
        for number, total, dead in self.blob_segments:
            out += encode_varint(_TAG_BLOB_SEGMENT)
            out += encode_varint(number) + encode_varint(total) + encode_varint(dead)
        for number in sorted(self.deleted_blob_segments):
            out += encode_varint(_TAG_BLOB_SEGMENT_DELETE) + encode_varint(number)
        if self.blob_separation:
            out += encode_varint(_TAG_BLOB_SEPARATION) + encode_varint(1)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "VersionEdit":
        edit = cls()
        pos = 0
        while pos < len(data):
            tag, pos = decode_varint(data, pos)
            if tag == _TAG_LOG_NUMBER:
                edit.log_number, pos = decode_varint(data, pos)
            elif tag == _TAG_NEXT_FILE:
                edit.next_file_number, pos = decode_varint(data, pos)
            elif tag == _TAG_LAST_SEQUENCE:
                edit.last_sequence, pos = decode_varint(data, pos)
            elif tag == _TAG_DELETED_FILE:
                level, pos = decode_varint(data, pos)
                number, pos = decode_varint(data, pos)
                edit.deleted_files.add((level, number))
            elif tag == _TAG_NEW_FILE:
                level, pos = decode_varint(data, pos)
                number, pos = decode_varint(data, pos)
                size, pos = decode_varint(data, pos)
                smallest, pos = get_length_prefixed(data, pos)
                largest, pos = get_length_prefixed(data, pos)
                edit.add_file(level, FileMetaData(number, size, smallest, largest))
            elif tag == _TAG_BLOB_SEGMENT:
                number, pos = decode_varint(data, pos)
                total, pos = decode_varint(data, pos)
                dead, pos = decode_varint(data, pos)
                edit.set_blob_segment(number, total, dead)
            elif tag == _TAG_BLOB_SEGMENT_DELETE:
                number, pos = decode_varint(data, pos)
                edit.delete_blob_segment(number)
            elif tag == _TAG_BLOB_SEPARATION:
                flag, pos = decode_varint(data, pos)
                edit.blob_separation = bool(flag)
            elif tag == _TAG_RETIRED_SORTED_VIEW:
                _stamp, pos = decode_varint(data, pos)
                _files_crc, pos = decode_varint(data, pos)
            else:
                raise CorruptionError(f"unknown VersionEdit tag {tag}")
        return edit


class Version:
    """Immutable snapshot of the file topology."""

    def __init__(self, num_levels: int) -> None:
        self.files: list[list[FileMetaData]] = [[] for _ in range(num_levels)]
        # Point-lookup routing, built once by ``apply`` (a version never
        # changes afterwards): ``(level, files, fences)`` per populated level
        # below L0, a fence being a file's largest user key.
        self._fenced_levels: list[tuple[int, list[FileMetaData], list[bytes]]] = []

    # -- invariants & queries -----------------------------------------------

    def check_invariants(self) -> None:
        """Levels ≥ 1 must be sorted by key with no overlaps."""
        for level in range(1, len(self.files)):
            files = self.files[level]
            for i in range(1, len(files)):
                prev, cur = files[i - 1], files[i]
                if internal_order(prev.largest) >= internal_order(cur.smallest):
                    raise CorruptionError(
                        f"L{level} files overlap: #{prev.number} and #{cur.number}"
                    )

    def num_files(self, level: int) -> int:
        return len(self.files[level])

    def level_bytes(self, level: int) -> int:
        return sum(f.file_size for f in self.files[level])

    def total_bytes(self) -> int:
        return sum(self.level_bytes(level) for level in range(len(self.files)))

    def all_files(self) -> Iterable[tuple[int, FileMetaData]]:
        for level, files in enumerate(self.files):
            for meta in files:
                yield level, meta

    def live_file_numbers(self) -> set[int]:
        return {meta.number for _, meta in self.all_files()}

    # -- lookup routing -------------------------------------------------------

    def files_for_user_key(self, user_key: bytes) -> Iterable[tuple[int, FileMetaData]]:
        """Files that may contain ``user_key``, newest data first.

        L0 files can overlap; they are searched newest-first (highest file
        number — ``apply`` keeps L0 in ascending number order). Deeper levels
        are sorted and disjoint, so binary search finds the one file — or, when
        a compaction cut its output between two versions of the key, the run.
        """
        for meta in reversed(self.files[0]):
            if meta.smallest_user_key <= user_key <= meta.largest_user_key:
                yield 0, meta
        for level, files, fences in self._fenced_levels:
            idx = bisect_left(fences, user_key)
            while idx < len(files) and files[idx].smallest_user_key <= user_key:
                yield level, files[idx]
                idx += 1

    def overlapping_files(
        self, level: int, begin: bytes | None, end: bytes | None
    ) -> list[FileMetaData]:
        """Files at ``level`` intersecting the user-key range [begin, end].

        The range is *expanded* until closed under overlap (LevelDB's rule):
        a compaction must take every transitively-overlapping L0 file, and
        below L0 the neighbour a user key's versions were cut across, or
        newer updates could be buried under older ones.
        """
        files = [f for f in self.files[level] if f.overlaps_user_range(begin, end)]
        if files:
            while True:
                lo = min((f.smallest_user_key for f in files))
                hi = max((f.largest_user_key for f in files))
                expanded = [f for f in self.files[level] if f.overlaps_user_range(lo, hi)]
                if len(expanded) == len(files):
                    return expanded
                files = expanded
        return files

    def is_base_level_for_key(self, level: int, user_key: bytes) -> bool:
        """True if no level deeper than ``level`` may contain ``user_key``.

        Compaction may drop tombstones only when this holds for the output
        level — otherwise a buried older value would resurface.
        """
        for deeper in range(level + 1, len(self.files)):
            for meta in self.files[deeper]:
                if meta.smallest_user_key <= user_key <= meta.largest_user_key:
                    return False
        return True

    # -- derivation -------------------------------------------------------------

    def apply(self, edit: VersionEdit) -> "Version":
        """Produce the next Version (sorted, invariant-checked)."""
        new = Version(len(self.files))
        deleted = edit.deleted_files
        added: dict[int, list[FileMetaData]] = {}
        for level, meta in edit.new_files:
            added.setdefault(level, []).append(meta)
        for level in range(len(self.files)):
            keep = [f for f in self.files[level] if (level, f.number) not in deleted]
            keep.extend(added.get(level, []))
            if level == 0:
                keep.sort(key=lambda m: m.number)
            else:
                keep.sort(key=lambda m: internal_order(m.smallest))
            new.files[level] = keep
        new.check_invariants()
        new._fenced_levels = [
            (level, files, [f.largest_user_key for f in files])
            for level, files in enumerate(new.files)
            if level and files
        ]
        return new


class VersionSet:
    """Owns the current Version, the MANIFEST, and global counters."""

    def __init__(self, env: Env, prefix: str, options: Options) -> None:
        self.env = env
        self.prefix = prefix
        self.options = options
        self.current = Version(NUM_LEVELS)
        self.blob_segments: dict[int, tuple[int, int]] = {}
        """Sealed blob-log segments: number -> (total_bytes, dead_bytes)."""
        self.blob_separation_enabled = False
        """True once the MANIFEST records that this store was created with
        key-value separation (see :attr:`VersionEdit.blob_separation`)."""
        self.next_file_number = 2  # 1 is reserved for the first manifest
        self.last_sequence = 0
        self.log_number = 0
        self._manifest: LogWriter | None = None
        self._manifest_number = 0

    # -- numbering -------------------------------------------------------------

    def new_file_number(self) -> int:
        number = self.next_file_number
        self.next_file_number += 1
        return number

    # -- manifest lifecycle ------------------------------------------------------

    def create(self) -> None:
        """Initialize a brand-new DB: write manifest #1 and CURRENT."""
        self._manifest_number = 1
        name = manifest_file_name(self.prefix, self._manifest_number)
        self._manifest = LogWriter(self.env.new_writable_file(name))
        snapshot = VersionEdit(
            log_number=self.log_number,
            next_file_number=self.next_file_number,
            last_sequence=self.last_sequence,
        )
        self._manifest.add_record(snapshot.encode())
        self.env.write_file(current_file_name(self.prefix), f"{self._manifest_number}".encode())

    def recover(self) -> None:
        """Rebuild state by replaying the manifest named by CURRENT."""
        current = current_file_name(self.prefix)
        if not self.env.file_exists(current):
            raise RecoveryError(f"no CURRENT file under {self.prefix!r}")
        try:
            manifest_number = int(self.env.read_file(current).decode())
        except ValueError as exc:
            raise RecoveryError("CURRENT file is garbled") from exc
        self._manifest_number = manifest_number
        name = manifest_file_name(self.prefix, manifest_number)
        version = Version(NUM_LEVELS)
        reader = read_log_file(self.env, name)
        applied = 0
        self.blob_segments = {}
        self.blob_separation_enabled = False
        for record in reader:
            edit = VersionEdit.decode(record)
            version = version.apply(edit)
            self._apply_blob(edit)
            if edit.log_number is not None:
                self.log_number = edit.log_number
            if edit.next_file_number is not None:
                self.next_file_number = edit.next_file_number
            if edit.last_sequence is not None:
                self.last_sequence = edit.last_sequence
            applied += 1
        if applied == 0:
            raise RecoveryError(f"manifest {name} is empty or corrupt")
        self.current = version
        # File numbers handed out after the last persisted edit (e.g. the
        # live WAL) are not in the manifest; never re-issue anything at or
        # below what the recovered state references.
        max_ref = max(
            [self.log_number, manifest_number]
            + [meta.number for _, meta in version.all_files()]
            + list(self.blob_segments)
        )
        self.next_file_number = max(self.next_file_number, max_ref + 1)
        # Reopen the manifest for appending new edits.
        data = self.env.read_file(name)
        self.env.delete_file(name)
        wf = self.env.new_writable_file(name)
        wf.append(data)
        wf.sync()
        self._manifest = LogWriter(wf)
        self._manifest.offset = len(data)

    def log_and_apply(self, edit: VersionEdit) -> None:
        """Persist an edit and make the resulting version current."""
        if self._manifest is None:
            raise RecoveryError("VersionSet not opened (call create/recover)")
        if edit.log_number is not None:
            self.log_number = edit.log_number
        edit.next_file_number = self.next_file_number
        if edit.last_sequence is None:
            edit.last_sequence = self.last_sequence
        else:
            self.last_sequence = max(self.last_sequence, edit.last_sequence)
        self._manifest.add_record(edit.encode())
        self.current = self.current.apply(edit)
        self._apply_blob(edit)

    def _apply_blob(self, edit: VersionEdit) -> None:
        for number, total, dead in edit.blob_segments:
            self.blob_segments[number] = (total, dead)
        for number in edit.deleted_blob_segments:
            self.blob_segments.pop(number, None)
        if edit.blob_separation:
            self.blob_separation_enabled = True

    def manifest_bytes(self) -> int:
        """Current manifest size — the metadata-overhead metric of E5."""
        return self._manifest.offset if self._manifest else 0

    @property
    def manifest_number(self) -> int:
        return self._manifest_number

    def rewrite_manifest(self) -> int:
        """Compact the manifest: write a fresh one holding a full snapshot.

        The edit log otherwise grows without bound across flushes and
        compactions. Ordering is crash-safe: the new manifest is written
        and synced first, then CURRENT atomically repointed, then the old
        manifest deleted (a crash in between leaves either the old chain
        intact or a harmless orphan that recovery purges).

        Returns the old manifest's number (already deleted).
        """
        if self._manifest is None:
            raise RecoveryError("VersionSet not opened (call create/recover)")
        old_number = self._manifest_number
        new_number = self.new_file_number()
        name = manifest_file_name(self.prefix, new_number)
        writer = LogWriter(self.env.new_writable_file(name))
        snapshot = VersionEdit(
            log_number=self.log_number,
            next_file_number=self.next_file_number,
            last_sequence=self.last_sequence,
        )
        for level, meta in self.current.all_files():
            snapshot.add_file(level, meta)
        for number, (total, dead) in sorted(self.blob_segments.items()):
            snapshot.set_blob_segment(number, total, dead)
        snapshot.blob_separation = self.blob_separation_enabled
        writer.add_record(snapshot.encode())
        crash_points.reach("manifest.rewrite_before_current")
        self.env.write_file(current_file_name(self.prefix), f"{new_number}".encode())
        self._manifest.close()
        self._manifest = writer
        self._manifest_number = new_number
        crash_points.reach("manifest.rewrite_before_delete")
        old_name = manifest_file_name(self.prefix, old_number)
        if self.env.file_exists(old_name):
            self.env.delete_file(old_name)
        return old_number

    def close(self) -> None:
        if self._manifest is not None:
            self._manifest.close()
            self._manifest = None
