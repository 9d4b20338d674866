"""Bi-objective values, dominance, and the non-dominated population
container.

Search points are fixed-length bit vectors packed into a single Python int
(bit i is position i; popcount via ``int.bit_count``), which keeps
mutation an XOR and objective evaluation a couple of popcounts. Objective
pairs are plain ``(f1, f2)`` integer tuples under maximization.

The population keeps the classic 2-D "staircase" of mutually non-dominated
objective values (sorted by rising f1, hence strictly falling f2) plus a
slot index keyed by a benchmark-specific integer (number of ones in the
second half for CountingOnesCountingZeros, total ones otherwise). Because
two members sharing a slot are always comparable, at most one member per
slot can survive, so the slot index doubles as a structural uniqueness
guarantee and gives O(1) slot-based parent lookup.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import neg
from typing import Callable, Iterator, NamedTuple, Optional


class ObjectivePair(NamedTuple):
    """Two integer objective values under maximization."""

    f1: int
    f2: int


def weak_dominates(u, v) -> bool:
    """True iff u is componentwise >= v."""
    return u[0] >= v[0] and u[1] >= v[1]


def strict_dominates(u, v) -> bool:
    """True iff u weakly dominates v and differs from it."""
    return u[0] >= v[0] and u[1] >= v[1] and (u[0] != v[0] or u[1] != v[1])


class Population:
    """Mutually non-dominated members with structural per-slot uniqueness.

    Parameters
    ----------
    slot_count:
        Number of slot values; slots are integers in [0, slot_count).
    slot_from_pair:
        Maps an objective pair to its member's slot. Must be injective on
        any mutually non-dominated set (two members mapping to the same
        slot must be comparable); the bi-objective benchmarks here satisfy
        that by construction.
    front_pair:
        Predicate marking Pareto-optimal objective pairs, used to maintain
        ``front_count`` incrementally. Pareto-optimal values are
        maximal, so they can only ever be replaced by an equal value and
        the count never decreases.
    """

    __slots__ = ("slot_count", "_slot_from_pair", "_front_pair",
                 "xs", "f1s", "f2s", "slots", "_by_slot", "front_count")

    def __init__(self, slot_count: int,
                 slot_from_pair: Callable[[int, int], int],
                 front_pair: Callable[[int, int], bool]):
        if slot_count < 1:
            raise ValueError("slot_count must be positive")
        self.slot_count = slot_count
        self._slot_from_pair = slot_from_pair
        self._front_pair = front_pair
        self.xs: list[int] = []      # member bits, aligned with f1s/f2s/slots
        self.f1s: list[int] = []     # strictly increasing
        self.f2s: list[int] = []     # strictly decreasing
        self.slots: list[int] = []
        self._by_slot: dict[int, int] = {}   # slot -> member bits
        self.front_count = 0

    def __len__(self) -> int:
        return len(self.xs)

    def members(self) -> Iterator[tuple[int, int, int]]:
        """Yield (bits, f1, f2) in increasing f1 order."""
        return zip(self.xs, self.f1s, self.f2s)

    def member_at_slot(self, slot: int) -> Optional[int]:
        """Bits of the unique member in ``slot``, or None if empty."""
        return self._by_slot.get(slot)

    def insert(self, bits: int, f1: int, f2: int) -> bool:
        """Apply the one-offspring population update.

        Removes every member weakly dominated by (f1, f2); the offspring
        joins unless a surviving member strictly dominates it. An offspring
        whose objective value equals a member's replaces that member.
        Returns True iff the offspring entered the population.
        """
        f1s = self.f1s
        f2s = self.f2s
        m = len(f1s)
        idx = bisect_left(f1s, f1)
        if idx < m and f2s[idx] >= f2:
            if f1s[idx] == f1 and f2s[idx] == f2:
                # equal objective value, hence the same slot: replace the
                # member in place
                self.xs[idx] = bits
                self._by_slot[self.slots[idx]] = bits
                return True
            return False  # strictly dominated by the successor
        hi = idx + 1 if idx < m and f1s[idx] == f1 else idx
        # members left of idx have smaller f1 and so larger f2 (-f2 ascends
        # there); those with f2 <= f2 are a suffix
        lo = bisect_left(f2s, -f2, 0, idx, key=neg)
        xs = self.xs
        slots = self.slots
        by_slot = self._by_slot
        front = self._front_pair
        if hi > lo:
            for j in range(lo, hi):
                del by_slot[slots[j]]
                if front(f1s[j], f2s[j]):
                    self.front_count -= 1
            del xs[lo:hi]
            del f1s[lo:hi]
            del f2s[lo:hi]
            del slots[lo:hi]
        slot = self._slot_from_pair(f1, f2)
        xs.insert(lo, bits)
        f1s.insert(lo, f1)
        f2s.insert(lo, f2)
        slots.insert(lo, slot)
        by_slot[slot] = bits
        if front(f1, f2):
            self.front_count += 1
        return True

    def check_invariants(self) -> None:
        """Exhaustive O(m^2) structural audit; test/debug use only."""
        m = len(self.xs)
        assert len(self.f1s) == len(self.f2s) == len(self.slots) == m
        assert m <= self.slot_count, "population exceeds slot capacity"
        for i in range(m):
            s = self.slots[i]
            assert s == self._slot_from_pair(self.f1s[i], self.f2s[i])
            assert 0 <= s < self.slot_count
            assert self._by_slot.get(s) == self.xs[i]
        assert len(self._by_slot) == m, "per-slot uniqueness violated"
        for i in range(1, m):
            assert self.f1s[i - 1] < self.f1s[i], "f1 order broken"
            assert self.f2s[i - 1] > self.f2s[i], "f2 order broken"
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                u = (self.f1s[i], self.f2s[i])
                v = (self.f1s[j], self.f2s[j])
                assert not weak_dominates(u, v), (
                    f"members {u} and {v} are not mutually non-dominated")
        got = sum(1 for a, b in zip(self.f1s, self.f2s)
                  if self._front_pair(a, b))
        assert got == self.front_count, "front counter out of sync"
