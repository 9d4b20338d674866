"""Benchmark evaluation, closed-form fronts, and the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semolab.benchmarks import (BRUTE_FORCE_MAX_N, BenchmarkSpec, Kind,
                                ParetoFront, analytic_front,
                                brute_force_front)
from semolab.core import Individual, strict_dominates
from semolab.engine import AlgorithmSpec


def ind(s: str) -> Individual:
    return Individual.from_string(s)


class TestEvalCocz:
    def test_all_ones(self):
        for n in (4, 8, 12):
            assert BenchmarkSpec(Kind.COCZ, n).evaluate(
                Individual.all_ones(n)) == (n, n // 2)

    def test_first_half_ones(self):
        for n in (4, 8, 12):
            x = ind("1" * (n // 2) + "0" * (n // 2))
            assert BenchmarkSpec(Kind.COCZ, n).evaluate(x) == (n // 2, n)

    def test_all_zeros(self):
        for n in (4, 8, 12):
            assert BenchmarkSpec(Kind.COCZ, n).evaluate(
                Individual.all_zeros(n)) == (0, n // 2)

    def test_mixed(self):
        # g1 = 2, g2 = 1 at n = 6
        assert BenchmarkSpec(Kind.COCZ, 6).evaluate(ind("110100")) == (3, 4)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            BenchmarkSpec(Kind.COCZ, 7)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.randoms(use_true_random=False))
    def test_objective_sum_identity(self, half, rnd):
        # f1 + f2 = n/2 + 2 * (ones in first half), for every individual
        n = 2 * half
        x = Individual(n, rnd.getrandbits(n))
        f1, f2 = BenchmarkSpec(Kind.COCZ, n).evaluate(x)
        g1 = (x.bits & ((1 << half) - 1)).bit_count()
        assert f1 + f2 == half + 2 * g1
        assert 0 <= f1 <= n and 0 <= f2 <= n


class TestEvalOmm:
    def test_extremes(self):
        spec = BenchmarkSpec(Kind.OMM, 6)
        assert spec.evaluate(Individual.all_zeros(6)) == (0, 6)
        assert spec.evaluate(Individual.all_ones(6)) == (6, 0)

    def test_popcount(self):
        assert BenchmarkSpec(Kind.OMM, 6).evaluate(ind("110100")) == (3, 3)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 20), st.randoms(use_true_random=False))
    def test_every_value_is_optimal(self, n, rnd):
        spec = BenchmarkSpec(Kind.OMM, n)
        x = Individual(n, rnd.getrandbits(n))
        assert spec.is_pareto_optimal(spec.evaluate(x))


class TestEvalOjzj:
    def test_all_ones(self):
        for n, k in [(8, 2), (10, 3)]:
            assert BenchmarkSpec(Kind.OJZJ, n, k).evaluate(
                Individual.all_ones(n)) == (n + k, k)

    def test_all_zeros(self):
        for n, k in [(8, 2), (10, 3)]:
            assert BenchmarkSpec(Kind.OJZJ, n, k).evaluate(
                Individual.all_zeros(n)) == (k, n + k)

    def test_gap_point(self):
        # n=8, k=2, seven ones: f1 = n - |x|_1 = 1, f2 = k + |x|_0 = 3
        spec = BenchmarkSpec(Kind.OJZJ, 8, 2)
        assert spec.evaluate(ind("11111110")) == (1, 3)

    def test_interior_point(self):
        # n=8, k=2, four ones: both counts within [k, n-k]
        spec = BenchmarkSpec(Kind.OJZJ, 8, 2)
        assert spec.evaluate(ind("11110000")) == (6, 6)

    def test_gap_size_validation(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(Kind.OJZJ, 8, 1)
        with pytest.raises(ValueError):
            BenchmarkSpec(Kind.OJZJ, 8, 9)
        with pytest.raises(ValueError):
            BenchmarkSpec(Kind.OJZJ, 8)  # k required

    def test_gap_size_on_other_benchmarks_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkSpec(Kind.OMM, 8, 2)

    @pytest.mark.parametrize("n,k", [(8, 2), (10, 2), (10, 3), (12, 3)])
    def test_front_values_dominate_everything_else(self, n, k):
        # Exhaustive dominance structure. Interior front values (both
        # coordinates >= 2k) strictly dominate every non-front value; the
        # two extremal values are merely maximal (the all-ones value is
        # incomparable to gap values of the same side, e.g. (n+k, k) vs
        # (k-1 side) pairs with second coordinate k+1). Every non-front
        # value is strictly dominated by every interior front value, which
        # is what keeps gap offspring out of any interior population.
        spec = BenchmarkSpec(Kind.OJZJ, n, k)
        front = analytic_front(spec)
        evaluate = spec.kernels().evaluate
        values = {evaluate(bits) for bits in range(1 << n)}
        interior = [v for v in values if v in front
                    and v[0] >= 2 * k and v[1] >= 2 * k]
        off = [v for v in values if v not in front]
        assert interior and off
        for u in interior:
            for v in off:
                assert strict_dominates(u, v)
        # maximality: nothing dominates a front value, and every non-front
        # value is dominated by something on the front
        for u in front:
            assert not any(strict_dominates(v, u) for v in values)
        for v in off:
            assert any(strict_dominates(u, v) for u in front)


class TestFronts:
    def test_cocz_n4(self):
        assert [tuple(p) for p in analytic_front(BenchmarkSpec(Kind.COCZ, 4))] \
            == [(2, 4), (3, 3), (4, 2)]

    def test_omm_n2(self):
        assert [tuple(p) for p in analytic_front(BenchmarkSpec(Kind.OMM, 2))] \
            == [(0, 2), (1, 1), (2, 0)]

    def test_ojzj_n8_k2(self):
        # cross-checked against brute force below: interior f1 in [4..8]
        # plus the extremal values (2,10) and (10,2)
        front = analytic_front(BenchmarkSpec(Kind.OJZJ, 8, 2))
        assert [tuple(p) for p in front] == [
            (2, 10), (4, 8), (5, 7), (6, 6), (7, 5), (8, 4), (10, 2)]

    @pytest.mark.parametrize("n", range(2, 17, 2))
    def test_cocz_matches_brute_force(self, n):
        spec = BenchmarkSpec(Kind.COCZ, n)
        assert analytic_front(spec).points == brute_force_front(spec).points
        assert len(analytic_front(spec)) == n // 2 + 1

    @pytest.mark.parametrize("n", range(2, 17))
    def test_omm_matches_brute_force(self, n):
        spec = BenchmarkSpec(Kind.OMM, n)
        assert analytic_front(spec).points == brute_force_front(spec).points
        assert len(analytic_front(spec)) == n + 1

    @pytest.mark.parametrize("n,k", [(8, 2), (10, 2), (10, 3), (12, 3),
                                     (12, 4), (9, 2), (11, 3), (8, 4),
                                     (6, 4), (10, 5)])
    def test_ojzj_matches_brute_force(self, n, k):
        # includes k > n/4 and k > n/2 edge shapes
        spec = BenchmarkSpec(Kind.OJZJ, n, k)
        assert analytic_front(spec).points == brute_force_front(spec).points

    @pytest.mark.parametrize("n,k", [(8, 2), (10, 2), (10, 3), (12, 3),
                                     (16, 4)])
    def test_ojzj_front_size_formula(self, n, k):
        assert len(analytic_front(BenchmarkSpec(Kind.OJZJ, n, k))) \
            == n - 2 * k + 3

    def test_brute_force_cap(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_front(BenchmarkSpec(Kind.OMM, BRUTE_FORCE_MAX_N + 1))

    def test_front_membership(self):
        spec = BenchmarkSpec(Kind.COCZ, 8)
        assert spec.is_pareto_optimal((8, 4))   # all-ones endpoint
        assert spec.is_pareto_optimal((4, 8))
        assert not spec.is_pareto_optimal((3, 7))  # g1 < n/2
        assert not spec.is_pareto_optimal((0, 4))
        ojzj = BenchmarkSpec(Kind.OJZJ, 8, 2)
        assert not ojzj.is_pareto_optimal((1, 3))
        assert ojzj.is_pareto_optimal((10, 2))

    def test_front_csv_rows(self):
        rows = analytic_front(BenchmarkSpec(Kind.COCZ, 4)).to_csv_rows()
        assert rows == ["2,4", "3,3", "4,2"]

    def test_front_requires_staircase(self):
        with pytest.raises(ValueError):
            ParetoFront(points=(  # (1,1) dominated by (2,2)
                __import__("semolab").core.ObjectivePair(1, 1),
                __import__("semolab").core.ObjectivePair(2, 2)))


class TestKernels:
    @pytest.mark.parametrize("spec", [
        BenchmarkSpec(Kind.COCZ, 10),
        BenchmarkSpec(Kind.OMM, 11),
        BenchmarkSpec(Kind.OJZJ, 11, 3),
    ])
    def test_slot_recovery_and_front_flag(self, spec):
        kern = spec.kernels()
        front = analytic_front(spec)
        rng = random.Random(0)
        for _ in range(300):
            bits = rng.getrandbits(spec.n)
            f1, f2 = kern.evaluate(bits)
            expected_slot = ((bits >> (spec.n // 2)).bit_count()
                             if spec.kind is Kind.COCZ else bits.bit_count())
            assert kern.slot_from_pair(f1, f2) == expected_slot
            assert kern.is_front_pair(f1, f2) == ((f1, f2) in front)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_tables_match_bitwise_definition(self, n):
        # omm and ojzj evaluate from a per-ones-count table; check it on
        # every string against the definitions written over the bits:
        # OneMinMax = (|x|_1, |x|_0); OneJumpZeroJump's first objective is
        # k + |x|_1 if |x|_1 <= n - k or x = 1^n and n - |x|_1 otherwise,
        # its second the same over zeros
        vectors = [[(bits >> i) & 1 for i in range(n)]
                   for bits in range(1 << n)]
        evaluate = BenchmarkSpec(Kind.OMM, n).kernels().evaluate
        for bits, x in enumerate(vectors):
            assert evaluate(bits) == (sum(x), x.count(0))

        for k in range(2, n + 1):
            evaluate = BenchmarkSpec(Kind.OJZJ, n, k).kernels().evaluate
            for bits, x in enumerate(vectors):
                ones, zeros = x.count(1), x.count(0)
                f1 = k + ones if ones <= n - k or all(x) else n - ones
                f2 = k + zeros if zeros <= n - k or not any(x) else n - zeros
                assert evaluate(bits) == (f1, f2)

    @pytest.mark.parametrize("spec", [
        BenchmarkSpec(Kind.COCZ, 10),
        BenchmarkSpec(Kind.OMM, 10),
        BenchmarkSpec(Kind.OJZJ, 10, 3),
    ])
    def test_value_class_key(self, spec):
        # the run loop memoises offspring fates by this key, so equal keys
        # must mean equal objective pairs on every string
        kern = spec.kernels()
        assert (kern.half_mask == 0) == (spec.kind is not Kind.COCZ)
        pair_of_key = {}
        for bits in range(1 << spec.n):
            key = (bits.bit_count()
                   + (bits & kern.half_mask).bit_count() * (spec.n + 1))
            pair = pair_of_key.setdefault(key, kern.evaluate(bits))
            assert pair == kern.evaluate(bits)

    def test_kernels_built_once_per_spec(self):
        spec = BenchmarkSpec(Kind.OJZJ, 12, 3)
        assert spec.kernels() is BenchmarkSpec(Kind.OJZJ, 12, 3).kernels()
        assert BenchmarkSpec(Kind.COCZ, 12).kernels().values is None

    def test_slot_count(self):
        assert BenchmarkSpec(Kind.COCZ, 12).slot_count == 7
        assert BenchmarkSpec(Kind.OMM, 12).slot_count == 13
        assert BenchmarkSpec(Kind.OJZJ, 12, 2).slot_count == 13


def test_default_max_iterations_policy():
    """Without ``max_iterations`` a run stops at MAX_ITERATIONS_C (50)
    times the benchmark's reference growth law."""
    import math
    assert AlgorithmSpec.gsemo().cutoff(BenchmarkSpec(Kind.COCZ, 64)) \
        == int(50 * 64 * 64 * math.log(64))
    assert AlgorithmSpec.gsemo().cutoff(BenchmarkSpec(Kind.OJZJ, 12, 2)) \
        == 50 * 12 ** 3
    assert AlgorithmSpec.semo(max_iterations=7).cutoff(
        BenchmarkSpec(Kind.OMM, 64)) == 7
