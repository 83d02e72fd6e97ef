"""Bloom filter, LevelDB-compatible double hashing.

Used for SSTable filter blocks: a filter is built once per table from the
set of user keys and serialized into the file; readers probe it before
touching data blocks. The guarantee tested by the property suite is
*no false negatives*: every key added always matches.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass


_SEED = 0xBC9F1D34
_MULTIPLIER = 0xC6A4A793
# The whole little-endian words of a key, by key length (longer keys compile theirs).
_WORDS = tuple(struct.Struct(f"<{n >> 2}I") for n in range(64))


def _bloom_hash(data: bytes, seed: int = _SEED) -> int:
    """32-bit multiplicative hash (LevelDB's ``BloomHash``), finalized.

    The raw LevelDB hash leaves the trailing 1–3 bytes weakly mixed. For
    dense integer-formatted keys (``user%010d``) differing only in the
    final digits, both the probe start and the double-hashing delta stay
    correlated across neighboring keys, and the measured false-positive
    rate then swings wildly (0–15% at 13 bits/key) with the incidental
    factorization of the filter's bit-array size. A murmur3 ``fmix32``
    finalizer restores full avalanche for two extra multiplies; measured
    rates then track the ``0.6185^bits`` theory at every size.
    """
    m = _MULTIPLIER
    n = len(data)
    h = (seed ^ (n * m)) & 0xFFFFFFFF
    words = _WORDS[n] if n < 64 else struct.Struct(f"<{n >> 2}I")
    for w in words.unpack_from(data):
        h = ((h + w) * m) & 0xFFFFFFFF
        h ^= h >> 16
    if n & 3:  # the 1-3 bytes after the last whole word, as one short word
        h = ((h + int.from_bytes(data[n & ~3 :], "little")) * m) & 0xFFFFFFFF
        h ^= h >> 24
    # murmur3 fmix32: full avalanche over the 32-bit state.
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


def _bloom_hash_lanes(keys: list[bytes]) -> tuple[int, int, struct.Struct]:
    """:func:`_bloom_hash` of equal-length ``keys``, all at once.

    Returns ``(hashes, low32, lanes)``. The keys are laid side by side in
    one integer, one zero-padded lane per key (a multiple of 4 bytes, at
    least 16); ``hashes`` carries key ``i``'s hash in the low 32 bits of
    lane ``i`` and ``low32`` is the mask selecting those bits in every
    lane. Each step of the scalar hash runs once over the whole integer. A
    lane is at least 128 bits wide, so the 33-bit sum times the 32-bit
    multiplier (65 bits) cannot carry into the next lane; a right shift
    does bring the next lane's low bits into this lane's top, which is why
    every shift is re-masked. ``lanes.unpack(x.to_bytes(lanes.size,
    "little"))`` reads the low 32 bits of every lane of ``x``, first key
    first; byte order is spelled out on both sides, so the host's does not
    matter.
    """
    n = len(keys[0])
    lane_bytes = max(16, (n + 3) & ~3)
    pad = bytes(lane_bytes - n)
    packed = int.from_bytes(pad.join(keys) + pad, "little")
    ones = int.from_bytes((b"\x01" + bytes(lane_bytes - 1)) * len(keys), "little")
    low32 = ones * 0xFFFFFFFF
    m = _MULTIPLIER
    h = ones * ((_SEED ^ (n * m)) & 0xFFFFFFFF)
    for word in range(n >> 2):
        h = ((h + ((packed >> (32 * word)) & low32)) * m) & low32
        h = (h ^ (h >> 16)) & low32
    if n & 3:  # the zero padding makes the 1-3 tail bytes one short word
        h = ((h + ((packed >> (8 * (n & ~3))) & low32)) * m) & low32
        h = (h ^ (h >> 24)) & low32
    h = (h ^ (h >> 16)) & low32
    h = (h * 0x85EBCA6B) & low32
    h = (h ^ (h >> 13)) & low32
    h = (h * 0xC2B2AE35) & low32
    h = (h ^ (h >> 16)) & low32
    return h, low32, struct.Struct("<" + f"I{lane_bytes - 4}x" * len(keys))


@dataclass(frozen=True, slots=True)
class BloomFilterPolicy:
    """Factory for bloom filters with a fixed bits-per-key budget."""

    bits_per_key: int = 10

    @property
    def num_probes(self) -> int:
        """Number of hash probes, ``~bits_per_key * ln 2`` clamped to [1, 30]."""
        k = int(self.bits_per_key * 0.69)
        return max(1, min(30, k))

    def create_filter(self, keys: list[bytes]) -> bytes:
        """Serialize a filter matching every key in ``keys``.

        Layout: filter bit array followed by one byte holding the probe
        count, as in LevelDB. Keys are hashed a length group at a time
        (:func:`_bloom_hash_lanes`); the double-hashing rounds advance all
        of a group's lanes together and extract them once per round.
        """
        nbytes = (max(64, len(keys) * self.bits_per_key) + 7) // 8
        bits = nbytes * 8
        k = self.num_probes
        # One ASCII digit per filter bit, bit 0 first; reversed into a
        # binary numeral at the end — no shift-and-or per probe.
        flags = bytearray(b"0" * bits)
        by_length: dict[int, list[bytes]] = {}
        for key in keys:
            by_length.setdefault(len(key), []).append(key)
        for group in by_length.values():
            h, low32, lanes = _bloom_hash_lanes(group)
            delta = ((h >> 17) | (h << 15)) & low32
            for _ in range(k):
                for probe in lanes.unpack(h.to_bytes(lanes.size, "little")):
                    flags[probe % bits] = 0x31
                h = (h + delta) & low32
        flags.reverse()
        return int(flags, 2).to_bytes(nbytes, "little") + bytes((k,))

    @staticmethod
    def key_may_match(key: bytes, filter_data: bytes) -> bool:
        """Probe a serialized filter. False means *definitely absent*."""
        size = len(filter_data)
        if size < 2:
            return True  # degenerate filter: claim potential match
        k = filter_data[-1]
        if k > 30:
            # Reserved for future encodings; behave conservatively.
            return True
        bits = (size - 1) * 8
        h = _bloom_hash(key)
        delta = ((h >> 17) | (h << 15)) & 0xFFFFFFFF
        for _ in range(k):
            bitpos = h % bits
            if not filter_data[bitpos >> 3] >> (bitpos & 7) & 1:
                return False
            h = (h + delta) & 0xFFFFFFFF
        return True
