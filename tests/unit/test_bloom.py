"""Unit tests for the bloom filter policy."""

import hashlib

from repro.util.bloom import BloomFilterPolicy, _bloom_hash


class TestBloom:
    def test_added_keys_always_match(self):
        policy = BloomFilterPolicy(bits_per_key=10)
        keys = [f"key-{i}".encode() for i in range(500)]
        filt = policy.create_filter(keys)
        assert all(policy.key_may_match(k, filt) for k in keys)

    def test_empty_filter(self):
        policy = BloomFilterPolicy()
        filt = policy.create_filter([])
        # An empty filter should reject (almost) everything.
        assert not policy.key_may_match(b"anything", filt)

    def test_false_positive_rate_reasonable(self):
        policy = BloomFilterPolicy(bits_per_key=10)
        keys = [f"present-{i}".encode() for i in range(1000)]
        filt = policy.create_filter(keys)
        absent = [f"absent-{i}".encode() for i in range(10000)]
        fp = sum(policy.key_may_match(k, filt) for k in absent)
        # 10 bits/key gives ~1% theoretical; allow generous slack.
        assert fp / len(absent) < 0.05

    def test_more_bits_fewer_false_positives(self):
        keys = [f"k{i}".encode() for i in range(2000)]
        absent = [f"a{i}".encode() for i in range(5000)]
        rates = []
        for bits in (4, 16):
            policy = BloomFilterPolicy(bits_per_key=bits)
            filt = policy.create_filter(keys)
            rates.append(sum(policy.key_may_match(k, filt) for k in absent))
        assert rates[1] < rates[0]

    def test_degenerate_filter_is_conservative(self):
        assert BloomFilterPolicy.key_may_match(b"k", b"")
        assert BloomFilterPolicy.key_may_match(b"k", b"\xff")

    def test_unknown_probe_count_is_conservative(self):
        # Last byte 31 > 30 marks a reserved encoding; must not reject.
        assert BloomFilterPolicy.key_may_match(b"k", b"\x00\x00\x1f")

    def test_duplicate_keys_fine(self):
        policy = BloomFilterPolicy()
        filt = policy.create_filter([b"dup", b"dup", b"dup"])
        assert policy.key_may_match(b"dup", filt)

    def test_probe_count_bounds(self):
        assert BloomFilterPolicy(bits_per_key=1).num_probes == 1
        assert BloomFilterPolicy(bits_per_key=100).num_probes == 30


class TestSerializedFormIsPinned:
    """Filters are on disk: a change to a hash or probe bit is a format change."""

    def test_hash_golden_values(self):
        # One per tail length (0-3 bytes after 0, 1 and 2 whole words).
        assert [_bloom_hash(b"abcdefghi"[:n]) for n in range(10)] == [
            0x3F177186, 0xC550CB8F, 0x5BB998E4, 0x6D747A10, 0xD76FA46F,
            0x50674C98, 0x03DE6246, 0xE2432852, 0xF5434319, 0xD99864F2,
        ]  # fmt: skip
        assert _bloom_hash(b"\xff" * 7) == 0xEDB29991
        assert _bloom_hash(b"user0000000012345678") == 0x360F043A

    def test_filter_bytes_by_digest(self):
        keys = [b"user%012d" % (i * 7919 % 100003) for i in range(1000)]
        digests = {
            10: "76ca13ec1ec1192bf00ada1d0e0459d563a0eea228752d88d1e14c8b32bc7c8c",
            13: "f1d752a666f1d99e311f94a0658d0d80c7fc424daf06c2971408c0f2e2b703ae",
        }
        for bits, digest in digests.items():
            filt = BloomFilterPolicy(bits).create_filter(keys)
            assert hashlib.sha256(filt).hexdigest() == digest
