"""Dominance relations, bit-vector individuals, and the population update."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semolab.core import (Individual, ObjectivePair, Population, incomparable,
                          strict_dominates, weak_dominates)


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
        if u != v:
            assert incomparable(u, v) == (
                not weak_dominates(u, v) and not weak_dominates(v, u))

    def test_objective_pair_is_tuple(self):
        p = ObjectivePair(3, 4)
        assert p == (3, 4) and p.f1 == 3 and p.f2 == 4


class TestIndividual:
    def test_from_string_roundtrip(self):
        x = Individual.from_string("1101000010")
        assert x.n == 10
        assert str(x) == "1101000010"
        assert x.to_list() == [1, 1, 0, 1, 0, 0, 0, 0, 1, 0]
        assert x.ones == 4
        assert x.bit(0) == 1 and x.bit(2) == 0

    def test_bit_packing_order(self):
        # position 0 is the leftmost character and the lowest bit
        x = Individual.from_string("100")
        assert x.bits == 1

    def test_extremes(self):
        assert Individual.all_ones(7).ones == 7
        assert Individual.all_zeros(7).ones == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Individual(0, 0)
        with pytest.raises(ValueError):
            Individual(3, 8)
        with pytest.raises(ValueError):
            Individual.from_bits([0, 2, 1])

    def test_random_respects_length(self):
        rng = random.Random(7)
        for _ in range(50):
            x = Individual.random(6, rng)
            assert 0 <= x.bits < 64


def fresh_pop(slot_count=512):
    # slotting by f1 is valid for arbitrary pair sets: staircase members
    # have pairwise distinct f1 values
    return Population(slot_count, lambda f1, f2: f1)


class TestPopulationInsert:
    def test_equal_value_replaces(self):
        pop = fresh_pop()
        pop.insert(0b01, 3, 4)
        assert pop.insert(0b10, 3, 4)
        assert len(pop) == 1
        assert pop.xs == [0b10]
        assert pop.pairs() == [(3, 4)]
        assert pop.member_at_slot(3) == 0b10
        pop.check_invariants()

    def test_incomparable_coexist(self):
        pop = fresh_pop()
        pop.insert(1, 3, 4)
        assert pop.insert(2, 2, 5)
        assert sorted(pop.pairs()) == [(2, 5), (3, 4)]

    def test_dominating_offspring_sweeps(self):
        # hand-applied update rule: (3,5) removes both (3,4) and (2,5)
        pop = fresh_pop()
        pop.insert(1, 3, 4)
        pop.insert(2, 2, 5)
        assert pop.insert(3, 3, 5)
        assert pop.pairs() == [(3, 5)]
        assert pop.xs == [3]

    def test_dominated_offspring_rejected(self):
        pop = fresh_pop()
        pop.insert(1, 3, 5)
        assert not pop.insert(2, 3, 4)
        assert not pop.insert(2, 2, 5)
        assert pop.pairs() == [(3, 5)]

    def test_insert_individual_bits(self):
        pop = fresh_pop()
        assert pop.insert(Individual.from_string("101").bits, 4, 4)
        assert not pop.insert(Individual.from_string("010").bits, 3, 3)

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
        assert sorted(pop.pairs()) == sorted(reference)
        # structural audit: mutual non-domination, ordering, slot uniqueness
        pop.check_invariants()
        # the best objective-value sum never drops across updates
        new_max = max(x + y for x, y in pop.pairs())
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
    members = pop.pairs()
    for i, u in enumerate(members):
        for j, v in enumerate(members):
            if i != j:
                assert not weak_dominates(u, v)


def test_size_bound_is_slot_count():
    pop = Population(4, lambda f1, f2: f1)
    for v in range(4):
        pop.insert(v, v, 10 - v)
    assert len(pop) == 4
    pop.check_invariants()
