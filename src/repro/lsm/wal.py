"""Write-ahead log: record framing, writer, reader.

Record format::

    [masked crc32 fixed32][length fixed32][payload]

:class:`LogWriter` frames bytes and is shared with the MANIFEST. The plain
WAL, :class:`BatchLogWriter`, takes each :class:`WriteBatch` itself and
encodes it once into one record's payload.

The reader verifies each checksum and — like RocksDB — treats a truncated or
corrupt record as the end of the log: everything before it is recovered,
everything after is discarded. That matches the crash model of
:class:`~repro.storage.local.LocalDevice`, where a crash can leave a
partially synced tail.

The extended WAL (:mod:`repro.mash.xwal`) reuses this framing per shard.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lsm.write_batch import WriteBatch
from repro.storage.env import Env, WritableFile
from repro.util.crc import masked_crc32, verify_masked_crc32
from repro.util.encoding import decode_fixed32, encode_fixed32

RECORD_HEADER_SIZE = 8


class LogWriter:
    """Appends checksummed records to a writable file."""

    def __init__(self, file: WritableFile) -> None:
        self._file = file
        self.offset = 0

    def add_record(self, payload: bytes, *, sync: bool = True) -> None:
        """Append one record; durable on return when ``sync`` is True."""
        header = encode_fixed32(masked_crc32(payload)) + encode_fixed32(len(payload))
        self._file.append(header + payload)
        self.offset += RECORD_HEADER_SIZE + len(payload)
        if sync:
            self._file.sync()

    def close(self) -> None:
        self._file.close()


class BatchLogWriter(LogWriter):
    """The plain WAL: one encoded :class:`WriteBatch` per record."""

    def add_batch(self, batch: WriteBatch, *, sync: bool = True) -> None:
        """Log ``batch``; durable on return when ``sync`` is True."""
        self.add_record(batch.encode(), sync=sync)


class LogReader:
    """Replays records from a log file's bytes.

    Stops silently at the first truncated or checksum-failing record —
    ``tail_corrupt`` records whether that happened so recovery can report it.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self.tail_corrupt = False
        self.bytes_read = 0

    def __iter__(self) -> Iterator[bytes]:
        data = self._data
        pos = 0
        n = len(data)
        while pos + RECORD_HEADER_SIZE <= n:
            stored_crc = decode_fixed32(data, pos)
            length = decode_fixed32(data, pos + 4)
            start = pos + RECORD_HEADER_SIZE
            end = start + length
            if end > n:
                self.tail_corrupt = True
                return
            payload = data[start:end]
            if not verify_masked_crc32(payload, stored_crc):
                self.tail_corrupt = True
                return
            self.bytes_read = end
            yield payload
            pos = end
        if pos != n:
            self.tail_corrupt = True


def read_log_file(env: Env, name: str) -> LogReader:
    """Open and fully read a log file into a :class:`LogReader`."""
    return LogReader(env.read_file(name))
