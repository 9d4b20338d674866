"""The three bi-objective pseudo-Boolean benchmarks and their Pareto fronts.

All three are maximization problems over {0,1}^n whose objective values
depend only on popcounts, so the int-level kernels work on packed bits:

* CountingOnesCountingZeros ("cocz", even n): with g1/g2 the number of
  ones in the first/second half, f = (g1 + g2, g1 + n/2 - g2). Only
  g1 = n/2 is Pareto-optimal; the front is {(n/2 + j, n - j) | j in
  [0..n/2]}, size n/2 + 1.
* OneMinMax ("omm"): f = (|x|_1, n - |x|_1); every point is on the front
  {(i, n - i) | i in [0..n]}, size n + 1.
* OneJumpZeroJump ("ojzj", gap k in [2..n]): each objective is a jump
  function, one counting ones, one counting zeros. Individuals with
  between k and n-k ones plus the two extremal strings are Pareto-optimal;
  everything else is strictly dominated by all of them.

The omm and ojzj values depend on the ones count alone, so their kernels
hold a table of the n + 1 possible pairs (``Kernels.values``), built once
per spec from the closed form; ``evaluate`` is a popcount and a lookup.
The cocz value depends on the ones count and the first-half count, and
its kernels carry the first-half mask (``Kernels.half_mask``) so that the
run loop can name an offspring's value class without knowing the formula.

``brute_force_front`` enumerates all 2^n points (n <= 20) and serves as
the independent oracle for the closed-form fronts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

from .core import ObjectivePair, strict_dominates

BRUTE_FORCE_MAX_N = 20


class Kind(str, Enum):
    COCZ = "cocz"
    OMM = "omm"
    OJZJ = "ojzj"


@dataclass(frozen=True)
class BenchmarkSpec:
    kind: Kind
    n: int
    k: Optional[int] = None  # gap size, ojzj only

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"problem size must be >= 2, got n={self.n}")
        if self.kind is Kind.COCZ and self.n % 2 != 0:
            raise ValueError(f"cocz requires even n, got n={self.n}")
        if self.kind is Kind.OJZJ:
            if self.k is None:
                raise ValueError("ojzj requires a gap size k")
            if not 2 <= self.k <= self.n:
                raise ValueError(
                    f"ojzj gap size must satisfy 2 <= k <= n, got k={self.k}")
        elif self.k is not None:
            raise ValueError(f"{self.kind.value} takes no gap size")

    @property
    def slot_span(self) -> int:
        """Largest slot value: n/2 for cocz (slots are g2), n otherwise."""
        return self.n // 2 if self.kind is Kind.COCZ else self.n

    @property
    def slot_count(self) -> int:
        return self.slot_span + 1

    @property
    def front_size(self) -> int:
        if self.kind is Kind.COCZ:
            return self.n // 2 + 1
        if self.kind is Kind.OMM:
            return self.n + 1
        return max(0, self.n - 2 * self.k + 1) + 2

    def kernels(self) -> "Kernels":
        return _make_kernels(self)


@dataclass(frozen=True)
class Kernels:
    """Closure bundle used by the run loop; all int-level, no dispatch.

    ``slot_from_pair`` exploits that the slot key is recoverable from the
    objective pair, saving popcounts in the hot loop. ``values`` is the
    objective pair of every ones count 0..n for omm and ojzj, whose values
    depend on the ones count alone; their ``evaluate`` is a lookup in it,
    and the run loop reads it directly instead of calling ``evaluate``.
    cocz depends on two half counts, so it has no table (``values`` is
    None) and ``evaluate`` computes the pair.

    ``half_mask`` selects the first half of a cocz string and is 0 for omm
    and ojzj. The ones count plus ``(bits & half_mask).bit_count() * (n +
    1)`` is then a key of the value class of ``bits``: equal keys mean
    equal objective pairs for every kind. The run loop keys its per-run
    memo of offspring fates by it.
    """

    evaluate: Callable[[int], tuple[int, int]]
    slot_from_pair: Callable[[int, int], int]
    is_front_pair: Callable[[int, int], bool]
    slot_count: int
    slot_span: int
    front_size: int
    values: Optional[tuple[tuple[int, int], ...]]
    half_mask: int


@lru_cache(maxsize=None)
def _make_kernels(spec: BenchmarkSpec) -> Kernels:
    """Kernels of one benchmark instance, built once per spec."""
    n = spec.n
    values = None
    h1 = 0
    if spec.kind is Kind.COCZ:
        half = n // 2
        h1 = (1 << half) - 1
        front_sum = 3 * half  # f1 + f2 = n/2 + 2*g1, maximal at g1 = n/2

        def evaluate(bits: int) -> tuple[int, int]:
            g1 = (bits & h1).bit_count()
            g2 = (bits >> half).bit_count()
            return g1 + g2, g1 + half - g2

        def slot_from_pair(f1: int, f2: int) -> int:
            return (f1 - f2 + half) >> 1  # recovers g2

        def is_front_pair(f1: int, f2: int) -> bool:
            return f1 + f2 == front_sum

    elif spec.kind is Kind.OMM:
        values = tuple((ones, n - ones) for ones in range(n + 1))

        def slot_from_pair(f1: int, f2: int) -> int:
            return f1

        def is_front_pair(f1: int, f2: int) -> bool:
            return True

    else:
        k = spec.k
        front_sum = n + 2 * k
        upper = n - k

        def jump(ones: int) -> int:
            # k + ones outside the gap; the all-ones string (ones = n) is
            # the jump's optimum, not a gap point
            return k + ones if ones <= upper or ones == n else n - ones

        values = tuple((jump(ones), jump(n - ones)) for ones in range(n + 1))

        def slot_from_pair(f1: int, f2: int) -> int:
            # on-front f1 = k + ones >= k; in-gap f1 = n - ones <= k - 1
            return f1 - k if f1 >= k else n - f1

        def is_front_pair(f1: int, f2: int) -> bool:
            return f1 + f2 == front_sum

    if values is not None:
        def evaluate(bits: int) -> tuple[int, int]:
            return values[bits.bit_count()]

    return Kernels(evaluate=evaluate,
                   slot_from_pair=slot_from_pair,
                   is_front_pair=is_front_pair,
                   slot_count=spec.slot_count,
                   slot_span=spec.slot_span,
                   front_size=spec.front_size,
                   values=values,
                   half_mask=h1)


@dataclass(frozen=True)
class ParetoFront:
    """The set of maximal objective values, sorted by rising f1."""

    points: tuple[ObjectivePair, ...]

    def __post_init__(self):
        for a, b in zip(self.points, self.points[1:]):
            if not (a.f1 < b.f1 and a.f2 > b.f2):
                raise ValueError("front points must be a strict staircase")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @classmethod
    def from_pairs(cls, pairs) -> "ParetoFront":
        pts = sorted(set(ObjectivePair(int(a), int(b)) for a, b in pairs))
        return cls(points=tuple(pts))


def analytic_front(spec: BenchmarkSpec) -> ParetoFront:
    """Closed-form Pareto front of the benchmark."""
    n = spec.n
    if spec.kind is Kind.COCZ:
        half = n // 2
        pts = [(half + j, n - j) for j in range(half + 1)]
    elif spec.kind is Kind.OMM:
        pts = [(i, n - i) for i in range(n + 1)]
    else:
        k = spec.k
        total = n + 2 * k
        # interior values f1 in [2k..n] plus the two extremal strings
        pts = [(a, total - a) for a in range(2 * k, n + 1)]
        pts += [(k, n + k), (n + k, k)]
    return ParetoFront.from_pairs(pts)


def brute_force_front(spec: BenchmarkSpec) -> ParetoFront:
    """Exact front by full enumeration of {0,1}^n; oracle for small n."""
    if spec.n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute force enumerates 2^n points; n={spec.n} exceeds the "
            f"cap of {BRUTE_FORCE_MAX_N}")
    evaluate = spec.kernels().evaluate
    values = {evaluate(bits) for bits in range(1 << spec.n)}
    maximal = [u for u in values
               if not any(strict_dominates(v, u) for v in values)]
    return ParetoFront.from_pairs(maximal)

