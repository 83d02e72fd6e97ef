"""Per-level bloom-filter allocation (Monkey, SIGMOD 2017).

A uniform bits-per-key spends the same filter memory on every
level even though a point lookup probes the *upper* levels far more often
than it finds anything there: under leveling, a read walks L0 and one table
per deeper level until the key turns up, so every level above the key's
resting level is probed and rejected. Monkey's observation is that at a
fixed total memory budget the sum of false-positive block fetches is
minimized by letting the false-positive rate grow geometrically (by the
level size ratio ``T``) down the levels — equivalently, spending
``ln(T) / (ln 2)^2`` *fewer* bits per key on each deeper level — because a
deep level holds ``T×`` the entries of the one above it, so a bit of
memory moved upward protects ``T×`` more lookups per byte.

:class:`FilterAllocation` is the engine-side carrier: an immutable per-level
bits-per-key vector that :class:`~repro.lsm.table_builder.TableBuilder`
resolves at table-build time (via ``Options.table_filter_policy``), so
filters migrate to their level's allocation as flushes and compactions
rewrite tables. The *computation* of a Monkey allocation from observed
level sizes lives in :mod:`repro.tune.allocation`; this module only defines
the data shape the LSM core consumes (the engine never imports the tuner).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.bloom import BloomFilterPolicy

#: Probe loops clamp at 30 (LevelDB encoding); more bits buy nothing.
MAX_BITS_PER_KEY = 30


@dataclass(frozen=True)
class FilterAllocation:
    """Immutable bits-per-key vector, one entry per level.

    Levels beyond the vector reuse its last entry, so a short vector is a
    valid allocation for any tree depth. An entry of 0 means tables built
    at that level carry no filter at all.
    """

    bits_per_level: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits_per_level:
            raise ValueError("allocation needs at least one level entry")
        for bits in self.bits_per_level:
            if not 0 <= bits <= MAX_BITS_PER_KEY:
                raise ValueError(f"bits per key {bits} outside [0, {MAX_BITS_PER_KEY}]")

    @classmethod
    def uniform(cls, bits: int, num_levels: int = 1) -> "FilterAllocation":
        """The degenerate allocation equal to a flat bits-per-key."""
        return cls(bits_per_level=(bits,) * max(1, num_levels))

    def bits_for(self, level: int) -> int:
        if level < 0:
            raise ValueError("level must be >= 0")
        if level >= len(self.bits_per_level):
            return self.bits_per_level[-1]
        return self.bits_per_level[level]

    def policy_for(self, level: int) -> BloomFilterPolicy | None:
        """The filter policy tables built at ``level`` use (None = no filter)."""
        bits = self.bits_for(level)
        if bits <= 0:
            return None
        return BloomFilterPolicy(bits_per_key=bits)

    def describe(self) -> str:
        return "/".join(str(b) for b in self.bits_per_level)
