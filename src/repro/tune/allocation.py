"""Monkey-style per-level bloom allocation from observed level sizes.

Monkey (Dayan, Athanassoulis, Idreos — SIGMOD 2017) proves that at a fixed
total filter-memory budget the expected number of false-positive block
fetches per point lookup is minimized when the false-positive rate grows
geometrically down the levels by the size ratio ``T``. In bits-per-key
terms the optimum is linear: each level one step deeper spends

    Δ = ln(T) / (ln 2)²   bits per key fewer

than the level above it (≈ 4.8 bits for T=10). The intuition: a lookup
probes every level above the key's resting place, and a deeper level holds
``T×`` the entries — so a bit moved from the bottom level to the top
protects ``T×`` more probes per byte of memory.

:func:`monkey_allocation` solves for the per-level vector that satisfies
the Δ-rule *and* stays within the memory budget the uniform baseline would
spend on the same data (``budget_bits_per_key × total entries``), weighting
each level by its observed bytes. Two refinements over the textbook form:

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

The slope is scaled by the observed point-read share: a workload that
never issues point reads gets a flat (cheap) allocation because filters
only serve point lookups.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.lsm.filters import MAX_BITS_PER_KEY, FilterAllocation

#: Bisection iterations for the budget-matching base offset. 40 halvings
#: on a [0, 64] interval put the error far below the integer floor.
_BISECT_ROUNDS = 40


def monkey_bits_delta(size_multiplier: int, point_read_share: float = 1.0) -> float:
    """Bits-per-key decrease per level of depth (Monkey's Δ).

    Scaled by the point-read share: filters only pay off on point lookups,
    so a scan- or write-dominated window flattens the slope toward the
    uniform allocation instead of skewing memory for reads that never
    happen.
    """
    if size_multiplier < 2:
        raise ValueError("size_multiplier must be >= 2")
    share = min(1.0, max(0.0, point_read_share))
    return share * math.log(size_multiplier) / (math.log(2.0) ** 2)


def _false_positive_rate(bits: int) -> float:
    """Standard bloom FPR at the optimal hash count: ``0.6185^bits``."""
    return 0.6185**bits


def monkey_allocation(
    level_bytes: Sequence[int],
    *,
    budget_bits_per_key: int,
    size_multiplier: int,
    point_read_share: float = 1.0,
) -> FilterAllocation:
    """Per-level bits-per-key under the uniform baseline's memory budget.

    ``level_bytes[i]`` is the observed data volume at level ``i`` (entries
    are proportional to bytes for a fixed workload, which is all the
    weighting needs). The result satisfies, with ``w_i`` the byte weights:

        Σ w_i · bits_i  ≤  budget_bits_per_key

    i.e. the allocation never spends more filter memory on the observed
    tree shape than a uniform ``budget`` bits per key would. Levels holding
    no data yet still get an entry (flushes land on L0 before the
    controller has seen bytes there); they carry zero weight in the budget
    and inherit the Δ-rule bits for their depth.
    """
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
    fallback = monkey_bits_delta(size_multiplier, point_read_share)
    share = min(1.0, max(0.0, point_read_share))
    # Per-pair Δ from the observed adjacent-level byte ratio, clamped to
    # [1, T] so an inverted or barely-grown pair never steepens (or flips)
    # the slope beyond what the configured shape would. Pairs touching an
    # empty level fall back to the configured multiplier's Δ.
    deltas = []
    for level in range(num_levels - 1):
        above, below = level_bytes[level], level_bytes[level + 1]
        if above > 0 and below > 0:
            ratio = min(float(size_multiplier), max(1.0, below / above))
            deltas.append(share * math.log(ratio) / (math.log(2.0) ** 2))
        else:
            deltas.append(fallback)
    # Cumulative bit discount at each depth; levels above the first data
    # (empty, awaiting flushes) inherit the first populated level's bits.
    offsets = [0.0] * num_levels
    for level in range(first_data + 1, num_levels):
        offsets[level] = offsets[level - 1] + deltas[level - 1]
    for level in range(first_data):
        offsets[level] = 0.0

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
    lands, before the next controller window corrects them.
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
