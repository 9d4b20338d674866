"""Numeric tail bounds and reference curves used by the statistical harness.

Implements the concentration inequalities the experiment suites compare
against: two-sided tail bounds for sums of independent geometric random
variables, the integral sandwich around sums of a non-increasing function,
and the lower-tail Chernoff bound for sums of [0,1]-valued variables. All
probabilities are computed in log space and exponentiated at the boundary
so they stay meaningful at large deviation scales.

``scipy.integrate`` is imported inside ``harmonic_sum_bounds``, its only
user: loading it takes longer than everything else a run or a tail bound
needs, so the other functions here must not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .benchmarks import Kind


@dataclass(frozen=True)
class GeometricPhaseSet:
    """Success probabilities of independent geometric phases (support 1,2,...).

    The sum of the phase durations has expectation sum(1/p_i); the tail
    bounds additionally use s = sum(1/p_i^2) and the smallest probability.
    """

    success_probs: tuple[float, ...]

    def __post_init__(self):
        if not self.success_probs:
            raise ValueError("phase set must be non-empty")
        for p in self.success_probs:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"success probabilities must be in (0, 1], got {p}")

    @classmethod
    def of(cls, probs) -> "GeometricPhaseSet":
        return cls(success_probs=tuple(float(p) for p in probs))

    @property
    def expectation(self) -> float:
        return sum(1.0 / p for p in self.success_probs)

    @property
    def s(self) -> float:
        return sum(1.0 / (p * p) for p in self.success_probs)

    @property
    def p_min(self) -> float:
        return min(self.success_probs)


def witt_upper_tail(phases: GeometricPhaseSet, lam: float) -> float:
    """Bound on Pr[T >= E[T] + lam]: exp(-min(lam^2/s, lam*p_min)/4)."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    log_bound = -0.25 * min(lam * lam / phases.s, lam * phases.p_min)
    return math.exp(log_bound)


def witt_lower_tail(phases: GeometricPhaseSet, lam: float) -> float:
    """Bound on Pr[T <= E[T] - lam]: exp(-lam^2 / (2 s))."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return math.exp(-lam * lam / (2.0 * phases.s))


def chernoff_lower_tail(mean: float, delta: float) -> float:
    """Bound on Pr[X <= (1 - delta) E[X]]: exp(-delta^2 * mean / 2).

    X is a sum of independent [0,1]-valued variables with E[X] = mean.
    """
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    return math.exp(-delta * delta * mean / 2.0)


_MONOTONE_SAMPLES = 128
_MONOTONE_SLACK = 1e-12


def harmonic_sum_bounds(g: Callable[[float], float], alpha: float,
                        beta: float) -> tuple[float, float]:
    """Integral sandwich around sum_{x=alpha..beta} g(x) for non-increasing g.

    Returns (integral of g over [alpha, beta+1], integral over
    [alpha-1, beta]); the integer-grid sum of g lies between the two.
    Monotonicity is checked on a sample grid over [alpha-1, beta+1] and
    violations are rejected. A pole at the left edge (e.g. 1/x probed at
    alpha-1 = 0) is allowed and makes the upper bound +inf, which is the
    honest value of the divergent upper integral.
    """
    if alpha > beta:
        raise ValueError("alpha must not exceed beta")

    def value(x: float) -> float:
        try:
            return float(g(x))
        except (ZeroDivisionError, OverflowError, ValueError):
            return math.inf

    lo, hi = alpha - 1.0, beta + 1.0
    singular_edge = False
    prev = None
    for i in range(_MONOTONE_SAMPLES + 1):
        x = lo + (hi - lo) * i / _MONOTONE_SAMPLES
        v = value(x)
        if math.isinf(v):
            if prev is not None:
                raise ValueError(
                    f"integrand is non-finite at x={x:.6g} after finite "
                    "values; a non-increasing function is required")
            if x >= alpha:
                raise ValueError(
                    f"integrand must be finite on [alpha, beta+1], diverges "
                    f"at x={x:.6g}")
            singular_edge = True
            continue
        if prev is not None and v > prev + _MONOTONE_SLACK:
            raise ValueError(
                f"integrand increases near x={x:.6g}; a non-increasing "
                "function is required")
        prev = v
    from scipy.integrate import quad
    lower, _ = quad(g, alpha, beta + 1.0, limit=200)
    if singular_edge or math.isinf(value(alpha - 1.0)):
        return lower, math.inf
    upper, _ = quad(g, alpha - 1.0, beta, limit=200)
    return lower, upper


def growth_law(shape: str, n: int, k: Optional[int] = None,
               coefficient: float = 1.0) -> float:
    """The one definition of the growth shapes that the default cutoff,
    the suites' budgets and horizons, checkpoints and the scaling fit use:
    "n2_log" -> c*n^2*ln(n), "n_pow_k1" -> c*n^(k+1), "n2" -> c*n^2 and
    "const" -> c. Callers floor the value where they need an iteration.
    """
    if shape == "n2_log":
        return coefficient * n * n * math.log(n)
    if shape == "n_pow_k1":
        if k is None:
            raise ValueError("n_pow_k1 needs the gap size k")
        return coefficient * float(n) ** (k + 1)
    if shape == "n2":
        return coefficient * n * n
    if shape == "const":
        return coefficient
    raise ValueError(f"unknown growth shape {shape!r}")


def reference_model(kind: Kind, n: int, k: Optional[int] = None,
                    coefficient: float = 1.0) -> float:
    """Reference growth curve for the cover time: the "n2_log" shape
    c*n^2*ln(n) for the cocz/omm family, "n_pow_k1" c*n^(k+1) for ojzj
    (see ``growth_law``). The coefficient is a fit parameter, never a
    claimed constant.
    """
    return growth_law("n_pow_k1" if kind is Kind.OJZJ else "n2_log", n, k,
                      coefficient)
