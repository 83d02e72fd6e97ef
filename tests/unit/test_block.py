"""Unit tests for block building/reading (restart points, prefix compression)."""

import pytest

from repro.errors import CorruptionError
from repro.lsm.block import Block, BlockBuilder


def bytewise(key):
    """Sort key for plain byte order."""
    return key


def build(entries, restart_interval=16):
    builder = BlockBuilder(restart_interval)
    for k, v in entries:
        builder.add(k, v)
    return Block(builder.finish(), bytewise)


class TestBlockBuilder:
    def test_empty_finish(self):
        builder = BlockBuilder()
        block = Block(builder.finish(), bytewise)
        assert list(block) == []

    def test_size_estimate_grows(self):
        builder = BlockBuilder()
        before = builder.current_size_estimate()
        builder.add(b"key", b"value")
        assert builder.current_size_estimate() > before

    def test_reset(self):
        builder = BlockBuilder()
        builder.add(b"a", b"1")
        builder.reset()
        assert builder.empty()
        builder.add(b"b", b"2")
        block = Block(builder.finish(), bytewise)
        assert list(block) == [(b"b", b"2")]

    def test_invalid_restart_interval(self):
        with pytest.raises(ValueError):
            BlockBuilder(0)

    def test_prefix_compression_saves_space(self):
        shared = [(f"commonprefix/{i:06d}".encode(), b"v") for i in range(100)]
        unique = [(f"{i:06d}/suffix-unrelated".encode(), b"v") for i in range(100)]
        b_shared = BlockBuilder(16)
        for k, v in shared:
            b_shared.add(k, v)
        b_unique = BlockBuilder(16)
        for k, v in unique:
            b_unique.add(k, v)
        assert len(b_shared.finish()) < len(b_unique.finish())


class TestBlockRead:
    def test_roundtrip_order(self):
        entries = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(200)]
        block = build(entries)
        assert list(block) == entries

    def test_roundtrip_small_restart_interval(self):
        entries = [(f"k{i:04d}".encode(), b"x" * i) for i in range(50)]
        block = build(entries, restart_interval=1)
        assert list(block) == entries

    def test_get_exact(self):
        entries = [(f"k{i:04d}".encode(), f"v{i}".encode()) for i in range(100)]
        block = build(entries)
        assert block.get(b"k0042") == b"v42"
        assert block.get(b"k0000") == b"v0"
        assert block.get(b"k0099") == b"v99"

    def test_get_missing(self):
        block = build([(b"b", b"1"), (b"d", b"2")])
        assert block.get(b"a") is None
        assert block.get(b"c") is None
        assert block.get(b"e") is None

    def test_seek(self):
        entries = [(f"k{i:02d}".encode(), b"v") for i in range(0, 20, 2)]
        block = build(entries, restart_interval=4)
        got = list(block.seek(b"k07"))
        assert got[0][0] == b"k08"
        assert [k for k, _ in got] == [b"k08", b"k10", b"k12", b"k14", b"k16", b"k18"]

    def test_seek_before_first(self):
        entries = [(b"m", b"1")]
        block = build(entries)
        assert list(block.seek(b"a")) == entries

    def test_seek_past_last(self):
        block = build([(b"a", b"1")])
        assert list(block.seek(b"z")) == []

    def test_empty_values_and_keys_with_nulls(self):
        entries = [(b"\x00", b""), (b"\x00\x01", b"\x00val"), (b"a\x00b", b"v")]
        block = build(entries)
        assert list(block) == entries

    def test_corrupt_restart_count(self):
        with pytest.raises(CorruptionError):
            Block(b"\x01", bytewise)

    def test_corrupt_truncated_entry(self):
        builder = BlockBuilder()
        builder.add(b"key", b"value" * 100)
        data = builder.finish()
        # Chop bytes from the middle of the entry body, keep trailer intact.
        bad = data[:10] + data[-8:]
        block = Block(bad, bytewise)
        with pytest.raises(CorruptionError):
            list(block)

    def test_duplicate_keys_preserved(self):
        # The block layer itself allows equal keys (internal keys never
        # collide, but the layer should not silently drop entries).
        block = build([(b"k", b"1"), (b"k", b"2")])
        assert list(block) == [(b"k", b"1"), (b"k", b"2")]
