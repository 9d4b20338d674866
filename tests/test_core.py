"""Dominance relations and the population update."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semolab.core import (ObjectivePair, Population, strict_dominates,
                          weak_dominates)


class TestDominance:
    @pytest.mark.parametrize("u,v,expected", [
        ((3, 4), (3, 4), True),    # reflexive
        ((5, 2), (4, 2), True),    # componentwise >=
        ((5, 2), (4, 3), False),   # second component smaller
        ((4, 2), (5, 2), False),
    ])
    def test_weak(self, u, v, expected):
        assert weak_dominates(u, v) is expected

    @pytest.mark.parametrize("u,v,expected", [
        ((3, 4), (3, 4), False),   # equality excluded
        ((5, 3), (4, 3), True),
        ((5, 2), (4, 3), False),   # incomparable
    ])
    def test_strict(self, u, v, expected):
        assert strict_dominates(u, v) is expected

    @given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
           st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
    def test_partial_order(self, u, v):
        assert weak_dominates(u, u)
        assert not strict_dominates(u, u)
        if strict_dominates(u, v):
            assert not weak_dominates(v, u)

    def test_objective_pair_is_tuple(self):
        p = ObjectivePair(3, 4)
        assert p == (3, 4) and p.f1 == 3 and p.f2 == 4


def fresh_pop(slot_count=512):
    # slotting by f1 is valid for arbitrary pair sets: staircase members
    # have pairwise distinct f1 values
    return Population(slot_count, lambda f1, f2: f1, lambda f1, f2: False)


def values_of(pop):
    return list(zip(pop.f1s, pop.f2s))


def bits_of(s: str) -> int:
    """Packed bits of a 0/1 string whose character i is bit i."""
    return int(s[::-1], 2)


class TestPopulationInsert:
    def test_equal_value_replaces(self):
        pop = fresh_pop()
        pop.insert(0b01, 3, 4)
        assert pop.insert(0b10, 3, 4)
        assert len(pop) == 1
        assert pop.xs == [0b10]
        assert values_of(pop) == [(3, 4)]
        assert pop.member_at_slot(3) == 0b10
        pop.check_invariants()

    def test_incomparable_coexist(self):
        pop = fresh_pop()
        pop.insert(1, 3, 4)
        assert pop.insert(2, 2, 5)
        assert sorted(values_of(pop)) == [(2, 5), (3, 4)]

    def test_dominating_offspring_sweeps(self):
        # hand-applied update rule: (3,5) removes both (3,4) and (2,5)
        pop = fresh_pop()
        pop.insert(1, 3, 4)
        pop.insert(2, 2, 5)
        assert pop.insert(3, 3, 5)
        assert values_of(pop) == [(3, 5)]
        assert pop.xs == [3]

    def test_dominated_offspring_rejected(self):
        pop = fresh_pop()
        pop.insert(1, 3, 5)
        assert not pop.insert(2, 3, 4)
        assert not pop.insert(2, 2, 5)
        assert values_of(pop) == [(3, 5)]

    def test_insert_individual_bits(self):
        pop = fresh_pop()
        assert pop.insert(bits_of("101"), 4, 4)
        assert not pop.insert(bits_of("010"), 3, 3)

    def test_slot_lookup(self):
        pop = fresh_pop()
        pop.insert(9, 3, 4)
        pop.insert(5, 2, 5)
        assert pop.member_at_slot(3) == 9
        assert pop.member_at_slot(2) == 5
        assert pop.member_at_slot(7) is None


def naive_update(members: list[tuple[int, int]],
                 pair: tuple[int, int]) -> list[tuple[int, int]]:
    """Independent reference for the update rule: literal remove-then-add."""
    kept = [z for z in members if not weak_dominates(pair, z)]
    if any(strict_dominates(z, pair) for z in kept):
        return kept
    return kept + [pair]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                min_size=1, max_size=60))
def test_insert_matches_naive_reference(pairs):
    pop = fresh_pop(64)
    reference: list[tuple[int, int]] = []
    max_sum = None
    for i, (a, b) in enumerate(pairs):
        pop.insert(i, a, b)
        reference = naive_update(reference, (a, b))
        assert sorted(values_of(pop)) == sorted(reference)
        # structural audit: mutual non-domination, ordering, slot uniqueness
        pop.check_invariants()
        # the best objective-value sum never drops across updates
        new_max = max(x + y for x, y in values_of(pop))
        if max_sum is not None:
            assert new_max >= max_sum
        max_sum = new_max


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                min_size=2, max_size=40))
def test_members_pairwise_incomparable(pairs):
    pop = fresh_pop(32)
    for i, (a, b) in enumerate(pairs):
        pop.insert(i, a, b)
    members = values_of(pop)
    for i, u in enumerate(members):
        for j, v in enumerate(members):
            if i != j:
                assert not weak_dominates(u, v)


def test_size_bound_is_slot_count():
    pop = Population(4, lambda f1, f2: f1, lambda f1, f2: False)
    for v in range(4):
        pop.insert(v, v, 10 - v)
    assert len(pop) == 4
    pop.check_invariants()
