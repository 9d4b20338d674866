"""Tail bounds, the sum-integral sandwich, and reference growth curves."""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semolab.benchmarks import BenchmarkSpec, Kind
from semolab.bounds import (GeometricPhaseSet, chernoff_lower_tail,
                            growth_law, harmonic_sum_bounds, reference_model,
                            witt_lower_tail, witt_upper_tail)

phase_sets = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10).map(
    GeometricPhaseSet.of)


class TestPhaseSet:
    def test_derived_quantities(self):
        ph = GeometricPhaseSet.of([0.5, 0.25])
        assert ph.expectation == pytest.approx(6.0)
        assert ph.s == pytest.approx(4.0 + 16.0)
        assert ph.p_min == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricPhaseSet.of([])
        with pytest.raises(ValueError):
            GeometricPhaseSet.of([0.5, 0.0])
        with pytest.raises(ValueError):
            GeometricPhaseSet.of([1.5])


class TestWittBounds:
    def test_upper_at_zero(self):
        assert witt_upper_tail(GeometricPhaseSet.of([0.3, 0.7]), 0.0) == 1.0

    def test_upper_worked_example(self):
        # two phases at p=1/2: s=8, p_min=1/2, lambda=4
        # -> exp(-min(16/8, 2)/4) = exp(-1/2)
        ph = GeometricPhaseSet.of([0.5, 0.5])
        assert witt_upper_tail(ph, 4.0) == pytest.approx(math.exp(-0.5))
        assert witt_upper_tail(ph, 4.0) == pytest.approx(0.60653066, abs=1e-7)

    def test_lower_at_zero(self):
        assert witt_lower_tail(GeometricPhaseSet.of([0.9]), 0.0) == 1.0

    def test_lower_worked_example(self):
        assert witt_lower_tail(GeometricPhaseSet.of([1.0]), 1.0) \
            == pytest.approx(math.exp(-0.5))

    def test_negative_lambda_rejected(self):
        ph = GeometricPhaseSet.of([0.5])
        with pytest.raises(ValueError):
            witt_upper_tail(ph, -1.0)
        with pytest.raises(ValueError):
            witt_lower_tail(ph, -0.1)

    @settings(max_examples=200, deadline=None)
    @given(phase_sets, st.floats(0, 1e4), st.floats(0, 1e4))
    def test_monotone_in_lambda(self, ph, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        assert witt_upper_tail(ph, hi) <= witt_upper_tail(ph, lo) + 1e-12
        assert witt_lower_tail(ph, hi) <= witt_lower_tail(ph, lo) + 1e-12
        for value in (witt_upper_tail(ph, lam1), witt_lower_tail(ph, lam1)):
            # in (0, 1] mathematically; 0.0 only from float underflow of
            # log-bounds below roughly -745
            assert 0.0 <= value <= 1.0
        if lam1 * lam1 / (2 * ph.s) < 700:
            assert witt_lower_tail(ph, lam1) > 0.0

    def test_monte_carlo_upper_tail_respected(self):
        # light version of the acceptance battery
        rng = np.random.default_rng(5)
        for _ in range(10):
            probs = rng.uniform(0.05, 1.0, size=rng.integers(1, 6))
            ph = GeometricPhaseSet.of(probs)
            samples = rng.geometric(probs, size=(4000, len(probs))).sum(axis=1)
            lam = 0.5 * ph.expectation
            emp = float(np.mean(samples >= ph.expectation + lam))
            bound = witt_upper_tail(ph, lam)
            sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / len(samples))
            assert emp <= bound + 3 * sigma


class TestChernoff:
    def test_delta_zero(self):
        assert chernoff_lower_tail(123.0, 0.0) == 1.0

    def test_worked_examples(self):
        assert chernoff_lower_tail(50.0, 0.5) == pytest.approx(math.exp(-6.25))
        # mean n/4 at delta 1/2 gives exp(-n/32)
        n = 64
        assert chernoff_lower_tail(n / 4, 0.5) == pytest.approx(math.exp(-n / 32))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chernoff_lower_tail(10.0, 1.5)
        with pytest.raises(ValueError):
            chernoff_lower_tail(-1.0, 0.5)

    def test_binomial_monte_carlo(self):
        rng = np.random.default_rng(11)
        n, p, delta = 200, 0.5, 0.2
        samples = rng.binomial(n, p, size=100_000)
        mean = n * p
        emp = float(np.mean(samples <= (1 - delta) * mean))
        bound = chernoff_lower_tail(mean, delta)
        sigma = math.sqrt(bound * (1 - bound) / len(samples))
        assert emp <= bound + 3 * sigma


class TestSandwich:
    def test_contains_harmonic_numbers(self):
        for n in (10, 100):
            exact = sum(1.0 / i for i in range(1, n + 1))
            lower, upper = harmonic_sum_bounds(lambda x: 1.0 / x, 1, n)
            assert lower <= exact <= upper

    def test_constant_function(self):
        lower, upper = harmonic_sum_bounds(lambda x: 3.0, 2, 7)
        assert lower == pytest.approx(3.0 * 6)
        assert upper == pytest.approx(3.0 * 6)

    def test_inverse_sqrt(self):
        n = 64
        exact = sum(1.0 / math.sqrt(i) for i in range(1, n // 2 + 1))
        lower, upper = harmonic_sum_bounds(lambda x: x ** -0.5, 1, n // 2)
        assert lower <= exact <= upper
        # the closed-form estimate used alongside it: sum <= sqrt(2n) - 1 + 1
        assert exact <= math.sqrt(2 * n)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError, match="non-increasing"):
            harmonic_sum_bounds(lambda x: x * x, 1, 5)

    def test_rejects_alpha_beyond_beta(self):
        with pytest.raises(ValueError):
            harmonic_sum_bounds(lambda x: 1.0 / x, 5, 4)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(0.2, 3.0), st.integers(2, 40))
    def test_random_power_families(self, c, b, span):
        alpha, beta = 2, 2 + span
        exact = sum(c / x ** b for x in range(alpha, beta + 1))
        lower, upper = harmonic_sum_bounds(lambda x: c / x ** b, alpha, beta)
        assert lower - 1e-9 <= exact <= upper + 1e-9


class TestReferenceModel:
    def test_quadratic_log_ratio(self):
        n = 64
        ratio = reference_model(Kind.COCZ, n) / reference_model(Kind.COCZ, 2 * n)
        assert ratio == pytest.approx(1 / (4 * math.log(128) / math.log(64)))
        assert ratio == pytest.approx(1 / 4.6667, rel=1e-3)

    def test_cubic_ratio(self):
        assert reference_model(Kind.OJZJ, 24, 2) / reference_model(Kind.OJZJ, 12, 2) \
            == pytest.approx(8.0)

    def test_strictly_increasing(self):
        values = [reference_model(Kind.OMM, n) for n in range(4, 200, 4)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_spec_fields(self):
        spec = BenchmarkSpec(Kind.OJZJ, 12, 2)
        assert reference_model(spec.kind, spec.n, spec.k, 0.05) \
            == pytest.approx(0.05 * 12 ** 3)
        with pytest.raises(ValueError):
            reference_model(Kind.OJZJ, 12)


class TestGrowthLaw:
    def test_shapes(self):
        assert growth_law("n2_log", 128, coefficient=0.001) \
            == 0.001 * 128 * 128 * math.log(128)
        assert growth_law("n2", 10, coefficient=2.0) == 200.0
        assert growth_law("n_pow_k1", 10, 2) == 1000.0
        assert growth_law("const", 999, coefficient=50.0) == 50.0
        with pytest.raises(ValueError, match="gap size"):
            growth_law("n_pow_k1", 10)
        with pytest.raises(ValueError, match="unknown growth shape"):
            growth_law("exp", 10)

    def test_reference_model_is_the_law(self):
        for n in (8, 64, 1000):
            assert reference_model(Kind.COCZ, n, coefficient=50.0) \
                == growth_law("n2_log", n, coefficient=50.0)
            assert reference_model(Kind.OJZJ, n, 3, 0.05) \
                == growth_law("n_pow_k1", n, 3, 0.05)

    def test_written_once(self):
        """n^2 ln n and n^(k+1) have one definition in the package."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src", "semolab")
        text = "".join(path.read_text() for path in Path(src).glob("*.py"))
        assert text.count("n * n * math.log(n)") == 1
        assert text.count("** (k + 1)") == 1
