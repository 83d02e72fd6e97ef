"""Key/value and request-distribution generators (YCSB-compatible).

The zipfian generator is YCSB's (Gray et al., "Quickly generating
billion-record synthetic databases"): skew parameter theta, default 0.99,
with the scrambled variant spreading hot keys across the keyspace so
hotness is not correlated with key order.
"""

from __future__ import annotations

import random
from typing import Protocol

from repro.util.crc import crc32


def make_key(index: int, *, prefix: str = "user") -> bytes:
    """YCSB-style fixed-width key."""
    return f"{prefix}{index:012d}".encode()


def make_value(index: int, size: int) -> bytes:
    """Deterministic pseudo-random value of ``size`` bytes."""
    seed = (index * 2654435761) & 0xFFFFFFFF
    rng = random.Random(seed)
    return rng.randbytes(size)


class RequestGenerator(Protocol):
    """What the runners need from a key-request generator."""

    def next(self) -> int: ...


class UniformGenerator:
    """Uniform over [0, count)."""

    def __init__(self, count: int, seed: int = 0) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        self.count = count
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.count)


class ZipfianGenerator:
    """YCSB's zipfian over [0, count), item 0 hottest."""

    ZIPFIAN_CONSTANT = 0.99

    def __init__(self, count: int, theta: float | None = None, seed: int = 0) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        self.count = count
        self.theta = self.ZIPFIAN_CONSTANT if theta is None else theta
        if not 0 < self.theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self._rng = random.Random(seed)
        self._zetan = self._zeta(count, self.theta)
        self._zeta2 = self._zeta(2, self.theta)
        self._alpha = 1.0 / (1.0 - self.theta)
        self._eta = (1 - (2.0 / count) ** (1 - self.theta)) / (1 - self._zeta2 / self._zetan)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i**theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.count * (self._eta * u - self._eta + 1) ** self._alpha)


class ScrambledZipfianGenerator:
    """Zipfian popularity spread over the keyspace by hashing."""

    def __init__(self, count: int, theta: float | None = None, seed: int = 0) -> None:
        self.count = count
        self._zipf = ZipfianGenerator(count, theta, seed)

    def next(self) -> int:
        rank = self._zipf.next()
        return crc32(rank.to_bytes(8, "little")) % self.count


class LatestGenerator:
    """Zipfian over recency: the most recently inserted keys are hottest
    (YCSB workload D)."""

    def __init__(self, count: int, theta: float | None = None, seed: int = 0) -> None:
        self.count = count
        self._zipf = ZipfianGenerator(count, theta, seed)

    def set_count(self, count: int) -> None:
        if count > self.count:
            # Rebuild lazily only on growth spurts to keep zeta cheap-ish.
            self.count = count
            self._zipf = ZipfianGenerator(count, self._zipf.theta)

    def next(self) -> int:
        offset = self._zipf.next() % self.count
        return self.count - 1 - offset


def make_request_generator(
    distribution: str, count: int, *, theta: float = 0.99, seed: int = 0
) -> RequestGenerator:
    """Factory used by the YCSB runner."""
    if distribution == "uniform":
        return UniformGenerator(count, seed)
    if distribution == "zipfian":
        return ScrambledZipfianGenerator(count, theta, seed)
    if distribution == "latest":
        return LatestGenerator(count, theta, seed)
    raise ValueError(f"unknown distribution {distribution!r}")
