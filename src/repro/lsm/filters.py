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
rewrite tables.

:func:`monkey_allocation` computes that vector from observed level sizes:
it satisfies the Δ-rule (≈ 4.8 bits per level for T=10) *and* stays within
the memory budget the uniform baseline would spend on the same data
(``budget_bits_per_key × total entries``), weighting each level by its
observed bytes. Two refinements over the textbook form:

* The Δ between two *adjacent populated* levels uses their **observed**
  byte ratio, not the configured multiplier — a real tree's last level is
  often only fractionally larger than the one above (it fills gradually),
  and applying the full ``ln(T)`` slope there over-strips its filter and
  hands back more false positives than the uniform baseline. The
  configured multiplier is only the fallback where a ratio is undefined
  (an empty level on either side).
* Flooring the continuous optimum to integer bits strands budget (up to
  one weighted bit). A greedy pass re-spends that headroom one bit at a
  time where it buys the largest false-positive reduction per byte,
  preserving the budget bound and the non-increasing shape.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.util.bloom import BloomFilterPolicy

#: Probe loops clamp at 30 (LevelDB encoding); more bits buy nothing.
MAX_BITS_PER_KEY = 30

#: Bisection iterations for the budget-matching base offset. 40 halvings
#: on a [0, 64] interval put the error far below the integer floor.
_BISECT_ROUNDS = 40


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


def _monkey_delta(size_ratio: float) -> float:
    """Bits-per-key decrease from one level to a ``size_ratio``× larger one."""
    return math.log(size_ratio) / (math.log(2.0) ** 2)


def _false_positive_rate(bits: int) -> float:
    """Standard bloom FPR at the optimal hash count: ``0.6185^bits``."""
    return 0.6185**bits


def monkey_allocation(
    level_bytes: Sequence[int],
    *,
    budget_bits_per_key: int,
    size_multiplier: int,
) -> FilterAllocation:
    """Per-level bits-per-key under the uniform baseline's memory budget.

    ``level_bytes[i]`` is the observed data volume at level ``i`` (entries
    are proportional to bytes for a fixed workload, which is all the
    weighting needs). The result satisfies, with ``w_i`` the byte weights:

        Σ w_i · bits_i  ≤  budget_bits_per_key

    i.e. the allocation never spends more filter memory on the observed
    tree shape than a uniform ``budget`` bits per key would. Levels holding
    no data yet still get an entry (flushes land on L0 before it holds
    bytes); they carry zero weight in the budget and inherit the Δ-rule
    bits for their depth.
    """
    if size_multiplier < 2:
        raise ValueError("size_multiplier must be >= 2")
    if budget_bits_per_key <= 0:
        return FilterAllocation.uniform(0, max(1, len(level_bytes)))
    num_levels = max(1, len(level_bytes))
    total = sum(level_bytes)
    if total <= 0:
        return FilterAllocation.uniform(
            min(budget_bits_per_key, MAX_BITS_PER_KEY), num_levels
        )
    weights = [b / total for b in level_bytes]
    first_data = next(i for i, b in enumerate(level_bytes) if b > 0)
    fallback = _monkey_delta(size_multiplier)
    # Per-pair Δ from the observed adjacent-level byte ratio, clamped to
    # [1, T] so an inverted or barely-grown pair never steepens (or flips)
    # the slope beyond what the configured shape would. Pairs touching an
    # empty level fall back to the configured multiplier's Δ.
    deltas = []
    for level in range(num_levels - 1):
        above, below = level_bytes[level], level_bytes[level + 1]
        if above > 0 and below > 0:
            deltas.append(_monkey_delta(min(float(size_multiplier), max(1.0, below / above))))
        else:
            deltas.append(fallback)
    # Cumulative bit discount at each depth; levels above the first data
    # (empty, awaiting flushes) inherit the first populated level's bits.
    offsets = [0.0] * num_levels
    for level in range(first_data + 1, num_levels):
        offsets[level] = offsets[level - 1] + deltas[level - 1]

    def spend(base: float) -> float:
        return sum(
            w * min(MAX_BITS_PER_KEY, max(0.0, base - off))
            for w, off in zip(weights, offsets)
        )

    # Weighted spend is monotone in the base offset; bisect it onto the
    # budget. The upper bound always overspends (or hits the probe cap at
    # every weighted level, in which case the cap is the answer).
    lo, hi = 0.0, float(MAX_BITS_PER_KEY) + max(offsets)
    if spend(hi) <= budget_bits_per_key:
        lo = hi
    for _ in range(_BISECT_ROUNDS):
        mid = (lo + hi) / 2.0
        if spend(mid) <= budget_bits_per_key:
            lo = mid
        else:
            hi = mid
    # When the continuous optimum sits exactly on an integer the bisection
    # converges to it from just below; snap up so flooring doesn't strip a
    # whole bit (the snap is only kept if it still fits the budget).
    if spend(round(lo, 6)) <= budget_bits_per_key:
        lo = round(lo, 6)
    # Flooring to ints only ever reduces the weighted spend, so the budget
    # bound survives quantization.
    bits = [
        int(min(MAX_BITS_PER_KEY, max(0.0, lo - off))) for off in offsets
    ]
    _respend_headroom(bits, weights, budget_bits_per_key)
    return FilterAllocation(bits_per_level=tuple(bits))


def _respend_headroom(
    bits: list[int], weights: Sequence[float], budget: float
) -> None:
    """Greedily re-spend the budget stranded by integer flooring.

    Each round adds one bit to the populated level with the best
    false-positive reduction per weighted bit, subject to the budget and
    to keeping the vector non-increasing. Empty levels are never bumped:
    they cost nothing *now* but would silently inflate spend once data
    lands there.
    """
    headroom = budget - sum(w * b for w, b in zip(weights, bits))
    while headroom > 1e-12:
        best, best_gain = -1, 0.0
        for i, w in enumerate(weights):
            if w <= 0.0 or w > headroom or bits[i] >= MAX_BITS_PER_KEY:
                continue
            if _populated_ceiling(bits, weights, i) < bits[i] + 1:
                continue  # would break the Monkey (non-increasing) shape
            gain = (
                _false_positive_rate(bits[i]) - _false_positive_rate(bits[i] + 1)
            ) / w
            if gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            return
        bits[best] += 1
        headroom -= weights[best]
        # Lift any empty levels directly above to keep the vector
        # non-increasing; they hold no keys, so the lift is free.
        for j in range(best - 1, -1, -1):
            if weights[j] > 0.0 or bits[j] >= bits[j + 1]:
                break
            bits[j] = bits[j + 1]


def _populated_ceiling(bits: list[int], weights: Sequence[float], i: int) -> int:
    """Max bits level ``i`` may hold: the nearest *populated* level above.

    Empty levels above don't constrain a bump — they carry no filter
    memory and get lifted alongside (see the caller).
    """
    for j in range(i - 1, -1, -1):
        if weights[j] > 0.0:
            return bits[j]
    return MAX_BITS_PER_KEY
