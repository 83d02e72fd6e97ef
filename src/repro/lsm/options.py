"""Tuning knobs for the LSM engine.

Defaults are scaled-down RocksDB defaults: the simulated stores used in
tests and benchmarks hold megabytes, not terabytes, so write buffers and
level targets shrink proportionally while preserving the *ratios* that shape
LSM behaviour (level fanout 10, L0 trigger 4, 4 KB blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Levels in the tree, L0 to L6 (RocksDB's default).
NUM_LEVELS = 7

LEVEL_SIZE_MULTIPLIER = 10
"""Size ratio between adjacent levels from L1 down (RocksDB's default)."""


@dataclass
class Options:
    """Engine configuration, shared by the core DB and all store variants.

    Only values some caller sets are fields. What has one value everywhere
    is a constant beside the code that reads it: :data:`NUM_LEVELS` here,
    ``BLOCK_RESTART_INTERVAL`` in :mod:`repro.lsm.table_builder`, the
    universal picker's ratios in :mod:`repro.lsm.universal`. Block checksums
    are always verified.
    """

    # Memtable / WAL
    write_buffer_size: int = 1 << 20
    """Bytes of memtable data before a flush is triggered."""

    # SSTable format
    block_size: int = 4096
    """Target uncompressed size of a data block."""

    compression: str = "none"
    """Data-block compression: "none" or "zlib". Compression shrinks cloud
    bytes and egress at CPU cost; experiment E13 quantifies the trade."""

    # Compaction shape
    compaction_style: str = "leveled"
    """"leveled" (LevelDB/RocksDB default) or "universal" (tiered): see
    :mod:`repro.lsm.universal` for the trade-off."""

    level0_file_num_compaction_trigger: int = 4
    """Number of L0 files/runs that triggers a compaction."""

    max_bytes_for_level_base: int = 4 << 20
    """Target size of L1; deeper levels grow by :data:`LEVEL_SIZE_MULTIPLIER`."""

    target_file_size_base: int = 1 << 20
    """Compaction output files roll over at this size."""

    max_subcompactions: int = 1
    """Upper bound on parallel subcompactions per compaction (RocksDB's
    ``max_subcompactions``). The key range of a compaction is partitioned at
    boundaries derived from input-file fences and index anchors; each
    partition merges on a forked child clock and the compaction joins on
    the slowest. 1 = fully serial (the default). Output *contents* are
    identical at any setting — only file cut points and simulated timing
    change."""

    scan_prefetch_depth: int = 0
    """Scan prefetch: a range scan opens the tables its merge reads first as
    parallel branches (the seek fan-out), and while it consumes one table of
    a level it keeps up to this many of the level's upcoming cloud-resident
    tables opened and primed on forked child clocks, so their round trips
    overlap consumption of the current table (RocksDB async-iterator-style;
    the schedule lives in :class:`~repro.lsm.block_cache.ScanReads`). 0 disables
    both (the default); an Env without a clock ignores it. Scan *results*
    are identical at any depth — only simulated timing and request counts
    change."""

    max_manifest_file_size: int = 256 << 10
    """Rewrite (compact) the MANIFEST once its edit log exceeds this size;
    0 disables rewriting."""

    compaction_filter: object = None
    """Optional ``f(user_key, value) -> bool`` (True = keep) applied during
    compaction to entries no live snapshot needs. Enables TTL/GC policies.
    Must be deterministic and idempotent: an entry the filter removes is
    converted to a tombstone (or dropped outright at the key's base level),
    and *older* shadowed versions of the key are judged at their own
    compactions — so a filter that flip-flops would resurrect stale data."""

    # Key-value separation (WAL-time blob log; see repro.mash.bloblog)
    blob_value_threshold: int = 0
    """Values at least this many bytes are diverted at WAL-append time into
    an append-only blob log and the LSM stores a fixed 32-byte pointer
    instead; 0 disables separation. The setting is a store-lifetime choice,
    unsafe to flip in either direction: once a store has written pointers,
    reopening with separation disabled would return them verbatim, and
    enabling separation on a store created without it could misread a raw
    value that starts with the pointer magic as a pointer. The MANIFEST
    therefore brands separated stores at creation, and opening an
    unbranded store with a nonzero threshold raises
    ``InvalidArgumentError``."""

    blob_segment_bytes: int = 4 << 20
    """Seal and upload the active blob segment once it reaches this size
    (flushes also seal it, so SSTables only reference durable segments)."""

    # Caching
    block_cache_bytes: int = 8 << 20
    """In-memory (DRAM) block cache budget; 0 disables it."""

    def __post_init__(self) -> None:
        if self.write_buffer_size <= 0:
            raise ValueError("write_buffer_size must be positive")
        if self.block_size < 64:
            raise ValueError("block_size too small to hold a record")
        if self.compression not in ("none", "zlib"):
            raise ValueError(f"unknown compression {self.compression!r}")
        if self.compaction_style not in ("leveled", "universal"):
            raise ValueError(f"unknown compaction_style {self.compaction_style!r}")
        if self.max_subcompactions < 1:
            raise ValueError("max_subcompactions must be >= 1")
        if self.scan_prefetch_depth < 0:
            raise ValueError("scan_prefetch_depth must be >= 0")
        if self.blob_value_threshold < 0:
            raise ValueError("blob_value_threshold must be >= 0")
        if self.blob_segment_bytes <= 0:
            raise ValueError("blob_segment_bytes must be positive")

    @classmethod
    def small(cls) -> "Options":
        """Scaled-down thresholds for tests and quick experiments: KB-sized
        memtables, blocks and files, so a few hundred keys build a real
        multi-level tree."""
        return cls(
            write_buffer_size=4 << 10,
            block_size=512,
            max_bytes_for_level_base=16 << 10,
            target_file_size_base=4 << 10,
            block_cache_bytes=8 << 10,
        )

    def max_bytes_for_level(self, level: int) -> float:
        """Size target for ``level`` (level 0 is count-triggered, not size)."""
        if level < 1:
            raise ValueError("level targets start at L1")
        return self.max_bytes_for_level_base * LEVEL_SIZE_MULTIPLIER ** (level - 1)
