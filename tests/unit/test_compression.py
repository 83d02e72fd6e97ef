"""Unit tests for block compression."""

import pytest

from repro.errors import CorruptionError
from repro.lsm.format import (
    BLOCK_TRAILER_SIZE,
    COMPRESSION_NONE,
    COMPRESSION_ZLIB,
    seal_block,
    unseal_block,
)
from repro.lsm.options import Options
from repro.lsm.table_builder import TableBuilder
from repro.lsm.table_reader import TableReader
from repro.sim.clock import SimClock
from repro.storage.env import LocalEnv
from repro.storage.local import LocalDevice
from repro.util.encoding import TYPE_VALUE, seek_goal


class TestSealUnseal:
    def test_none_roundtrip(self):
        payload = b"some block payload"
        sealed = seal_block(payload)
        assert unseal_block(sealed) == payload
        assert sealed[-5] == COMPRESSION_NONE

    def test_zlib_roundtrip_compressible(self):
        payload = b"abc" * 500
        sealed = seal_block(payload, compression="zlib")
        assert sealed[-5] == COMPRESSION_ZLIB
        assert len(sealed) < len(payload)
        assert unseal_block(sealed) == payload

    def test_zlib_falls_back_for_incompressible(self):
        import random

        payload = random.Random(1).randbytes(500)
        sealed = seal_block(payload, compression="zlib")
        assert sealed[-5] == COMPRESSION_NONE  # stored raw
        assert unseal_block(sealed) == payload

    def test_unknown_compression_rejected(self):
        with pytest.raises(ValueError):
            seal_block(b"x", compression="lz4")

    def test_corrupt_compressed_payload_detected(self):
        sealed = bytearray(seal_block(b"abc" * 500, compression="zlib"))
        sealed[2] ^= 0xFF
        with pytest.raises(CorruptionError):
            unseal_block(bytes(sealed))

    def test_unknown_type_byte_detected(self):
        # Build a block with a bogus type byte but a valid CRC.
        from repro.util.crc import masked_crc32

        body = b"payload" + bytes([0x7F])
        raw = body + masked_crc32(body).to_bytes(4, "little")
        with pytest.raises(CorruptionError):
            unseal_block(raw)

    def test_trailer_size_constant(self):
        sealed = seal_block(b"x")
        assert len(sealed) == 1 + BLOCK_TRAILER_SIZE


class TestCompressedTables:
    def build(self, compression):
        env = LocalEnv(LocalDevice(SimClock()))
        options = Options(block_size=1024, compression=compression, block_cache_bytes=0)
        builder = TableBuilder(options, env.new_writable_file("t.sst"))
        entries = [
            (f"key{i:06d}".encode(), -((7 << 8) | TYPE_VALUE), b"repetitive " * 20)
            for i in range(500)
        ]
        for entry in entries:
            builder.add(*entry)
        props = builder.finish()
        reader = TableReader(options, env.new_random_access_file("t.sst"))
        return props, reader, entries

    def test_zlib_shrinks_file(self):
        raw_props, _, _ = self.build("none")
        zip_props, _, _ = self.build("zlib")
        assert zip_props.file_size < raw_props.file_size / 2

    def test_reads_transparent(self):
        _, reader, entries = self.build("zlib")
        assert list(reader.entries()) == entries
        assert reader.get(seek_goal(b"key000123", 100)) == entries[123]

    def test_invalid_option_rejected(self):
        with pytest.raises(ValueError):
            Options(compression="snappy")

    def test_db_end_to_end_with_compression(self):
        env = LocalEnv(LocalDevice(SimClock()))
        from repro.lsm.db import DB

        options = Options(
            write_buffer_size=4 << 10,
            block_size=512,
            max_bytes_for_level_base=16 << 10,
            target_file_size_base=4 << 10,
            compression="zlib",
            block_cache_bytes=0,
        )
        db = DB.open(env, "db/", options)
        for i in range(2000):
            db.put(f"k{i:05d}".encode(), b"compressible-" * 10)
        for i in range(0, 2000, 97):
            assert db.get(f"k{i:05d}".encode()) == b"compressible-" * 10
        db.close()
        db2 = DB.open(env, "db/", options)
        assert db2.get(b"k00042") == b"compressible-" * 10
        db2.close()
