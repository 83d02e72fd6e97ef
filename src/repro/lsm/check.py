"""Offline consistency checker (``fsck`` for the LSM store).

Walks a database without opening it for writes and verifies:

* CURRENT → MANIFEST chain is readable and every edit applies cleanly;
* the recovered version satisfies the level invariants (levels ≥ 1 sorted
  and non-overlapping);
* every live table file exists, has the recorded size, parses (footer,
  index, filter), all block checksums verify, entries are in strictly
  increasing internal-key order inside the recorded [smallest, largest]
  bounds, and the bloom filter matches every stored key;
* every MANIFEST-recorded blob segment exists, has the recorded size, and
  every record in it parses with a valid checksum;
* every blob pointer stored in a live table resolves to a record boundary
  in a MANIFEST-recorded segment with matching length and value checksum;
* WAL generations scan cleanly (a torn tail is a *warning* — crash-legal —
  mid-log corruption is an error);
* unreferenced table/manifest/blob files are reported as orphans (warnings).

Used by tests, by the reliability experiments, and as a
``python -m repro.lsm.check``-style library entry point for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CorruptionError, NotFoundError, ReproError
from repro.lsm.blob import BlobPointer, iter_blob_records, maybe_pointer
from repro.lsm.format import blob_file_name, parse_file_name, table_file_name
from repro.lsm.options import Options
from repro.lsm.table_reader import TableReader
from repro.lsm.version import FileMetaData, VersionSet
from repro.lsm.wal import LogReader
from repro.storage.env import Env
from repro.util.crc import masked_crc32
from repro.util.encoding import SeekGoal, entry_key


@dataclass
class CheckReport:
    """Outcome of a consistency check."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    tables_checked: int = 0
    entries_checked: int = 0
    wal_files_checked: int = 0
    blob_segments_checked: int = 0
    blob_pointers_checked: int = 0
    orphans: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, message: str) -> None:
        self.errors.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.errors)} ERROR(S)"
        return (
            f"check: {status} — {self.tables_checked} tables,"
            f" {self.entries_checked} entries, {self.wal_files_checked} WAL files,"
            f" {self.blob_segments_checked} blob segment(s),"
            f" {self.blob_pointers_checked} blob pointer(s),"
            f" {len(self.orphans)} orphan(s), {len(self.warnings)} warning(s)"
        )


def check_table(
    env: Env,
    name: str,
    options: Options,
    report: CheckReport,
    *,
    meta: FileMetaData | None = None,
    blob_refs: list[tuple[str, BlobPointer]] | None = None,
) -> None:
    """Verify one SSTable file end to end.

    When ``blob_refs`` is given, every pointer-shaped value is collected as
    ``(table_name, pointer)`` for the caller to cross-check against the
    manifest's blob segments.
    """
    try:
        reader = TableReader(options, env.new_random_access_file(name))
    except (CorruptionError, NotFoundError, ReproError) as exc:
        report.error(f"{name}: unreadable table: {exc}")
        return
    prev_key: SeekGoal | None = None
    first_key: SeekGoal | None = None
    count = 0
    try:
        for user_key, neg_trailer, value in reader.entries():
            key = (user_key, neg_trailer)
            if prev_key is None:
                first_key = key
            elif prev_key >= key:
                report.error(f"{name}: entries out of internal-key order")
                return
            if not reader.may_contain(user_key):
                report.error(f"{name}: bloom filter misses a stored key (false negative)")
                return
            if blob_refs is not None:
                pointer = maybe_pointer(value)
                if pointer is not None:
                    blob_refs.append((name, pointer))
            prev_key = key
            count += 1
    except CorruptionError as exc:
        report.error(f"{name}: corrupt block during scan: {exc}")
        return
    if count == 0:
        report.error(f"{name}: table has no entries")
        return
    report.entries_checked += count
    if meta is not None:
        assert first_key is not None and prev_key is not None  # count > 0
        if entry_key(*first_key) != meta.smallest:
            report.error(f"{name}: smallest key mismatch vs manifest")
        if entry_key(*prev_key) != meta.largest:
            report.error(f"{name}: largest key mismatch vs manifest")
        try:
            actual = env.file_size(name)
        except ReproError:
            actual = -1
        if actual != meta.file_size:
            report.error(
                f"{name}: size {actual} != manifest's {meta.file_size}"
            )
    report.tables_checked += 1


def check_blob_segments(
    env: Env,
    prefix: str,
    versions: VersionSet,
    blob_refs: list[tuple[str, BlobPointer]],
    report: CheckReport,
) -> None:
    """Verify MANIFEST-recorded blob segments and cross-check table pointers."""
    records: dict[int, dict[int, tuple[int, int]]] = {}
    for number, (total, dead) in sorted(versions.blob_segments.items()):
        name = blob_file_name(prefix, number)
        if not env.file_exists(name):
            report.error(f"{name}: blob segment in manifest but missing on storage")
            continue
        if dead > total:
            report.error(f"{name}: dead bytes {dead} exceed segment total {total}")
        try:
            data = env.read_file(name)
        except ReproError as exc:
            report.error(f"{name}: unreadable blob segment: {exc}")
            continue
        if len(data) != total:
            report.error(f"{name}: size {len(data)} != manifest's {total}")
            continue
        boundaries: dict[int, tuple[int, int]] = {}
        try:
            for offset, record in iter_blob_records(data):
                boundaries[offset] = (record.length, masked_crc32(record.value))
        except CorruptionError as exc:
            report.error(f"{name}: corrupt blob record: {exc}")
            continue
        records[number] = boundaries
        report.blob_segments_checked += 1

    for table_name, pointer in blob_refs:
        report.blob_pointers_checked += 1
        if pointer.segment not in versions.blob_segments:
            report.error(
                f"{table_name}: pointer into segment {pointer.segment}"
                " which is not in the manifest (dangling)"
            )
            continue
        boundaries = records.get(pointer.segment, {})
        found = boundaries.get(pointer.offset)
        if found is None:
            report.error(
                f"{table_name}: pointer offset {pointer.offset} is not a record"
                f" boundary in segment {pointer.segment}"
            )
        elif found != (pointer.length, pointer.value_crc):
            report.error(
                f"{table_name}: pointer into segment {pointer.segment} at"
                f" {pointer.offset} disagrees with the stored record"
                " (length or value checksum mismatch)"
            )


def check_db(env: Env, prefix: str, options: Options | None = None) -> CheckReport:
    """Run a full offline consistency check of the DB under ``prefix``."""
    options = options or Options()
    report = CheckReport()

    versions = VersionSet(env, prefix, options)
    try:
        versions.recover()
    except ReproError as exc:
        report.error(f"manifest unrecoverable: {exc}")
        return report
    finally:
        versions.close()

    try:
        versions.current.check_invariants()
    except CorruptionError as exc:
        report.error(f"version invariant violated: {exc}")

    live_numbers = versions.current.live_file_numbers()
    blob_refs: list[tuple[str, BlobPointer]] = []
    for level, meta in versions.current.all_files():
        name = table_file_name(prefix, meta.number)
        if not env.file_exists(name):
            report.error(f"{name}: live at L{level} but missing on storage")
            continue
        check_table(env, name, options, report, meta=meta, blob_refs=blob_refs)

    check_blob_segments(env, prefix, versions, blob_refs, report)

    for name in env.list_files(prefix):
        parsed = parse_file_name(prefix, name)
        if parsed is None:
            report.warn(f"{name}: unrecognized file name")
            continue
        kind, number = parsed
        if kind == "table" and number not in live_numbers:
            report.orphans.append(name)
            report.warn(f"{name}: orphan table (not referenced by manifest)")
        elif kind == "manifest" and number != versions.manifest_number:
            report.orphans.append(name)
            report.warn(f"{name}: orphan manifest")
        elif kind == "blob" and number not in versions.blob_segments:
            # Crash-legal: an active (WAL-referenced) segment or a leftover
            # local shadow of an uploaded one; recovery reconciles these.
            report.orphans.append(name)
            report.warn(f"{name}: orphan blob segment (not in manifest)")
        elif kind in ("log", "xlog"):
            reader = LogReader(env.read_file(name))
            records = sum(1 for _ in reader)
            report.wal_files_checked += 1
            if reader.tail_corrupt:
                if records == 0 and reader.bytes_read == 0 and env.file_size(name) > 0:
                    report.error(f"{name}: WAL unreadable from the first record")
                else:
                    report.warn(
                        f"{name}: torn tail after {records} records (crash-legal)"
                    )
    return report
