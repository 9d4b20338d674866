"""Mutation operators, the one-offspring evolutionary loop, slot-based
parent selection, and trajectory instrumentation.

Two mutation operators (flip exactly one uniform position; flip each
position independently with probability 1/n) crossed with two parent
selection rules give the four algorithm variants:

* ``original`` selection picks a parent uniformly from the population.
* ``modified`` selection draws a slot index uniformly from the full slot
  range and idles (advancing the iteration counter but creating no
  offspring) when that slot is empty. Filtering out idle iterations
  recovers the original process exactly, because per-slot uniqueness makes
  occupied slots a bijection onto members.

The runtime of a run is counted in objective-function evaluations: one for
the initial individual plus one per offspring, so for the original
variants it equals one plus the number of iterations until the population
covers the Pareto front. Idle iterations advance the iteration counter
only; both counters are reported.

``run_until_cover`` is the tuned inner loop (a run spends millions of
iterations here); ``step`` is the readable reference implementation of a
single iteration and the two are held together by an exact equivalence
test in the suite. An iteration of the loop pays only for what it draws:

* Zero-flip copies stop after their draws, omm and ojzj offspring read
  their objective pair from the per-spec table ``Kernels.values`` (cocz
  calls ``evaluate``), and weakly dominated offspring never reach
  ``Population.insert``.
* An offspring's fate (dropped as strictly dominated, replaces member idx
  at equal value, or changes the value set) depends only on its objective
  pair and the population's values, and the pair depends only on its
  value class: the ones count, plus the first-half count times n + 1 on
  cocz (``Kernels.half_mask``). The loop keeps a per-run memo from class
  to fate, so ``evaluate``, the bisection and the dominance test run once
  per class between two inserts. Only ``Population.insert`` changes the
  values, and the memo is cleared after each; an equal-value replacement
  changes the member's bits, not the values or their order, so the
  memoised index stays right.
* Only idle slot draws are counted. Every other iteration created one
  offspring, evaluated or not, so the evaluations after t iterations are
  t + 1 - idle and both runtimes match ``step``'s.
* The loop runs in segments that end at the next scheduled trajectory
  record (period tick, forced point or cutoff), so no iteration tests the
  schedule; a record at a change of the covered count is taken in the
  insert branch, the only place such a change can happen. ``measure``
  runs only for records taken after an insert; a record between two
  value-set changes reuses the last measurement with the new ``t``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

from . import calibration as cal
from .benchmarks import BenchmarkSpec, Kind
from .bounds import reference_model
from .core import Individual, Population


class Mutation(Enum):
    ONE_BIT = "one_bit"
    STANDARD = "standard"


class Selection(Enum):
    UNIFORM_PARENT = "uniform"
    SLOT_PARENT = "slot"


# the algorithm and variant names that configs and the CLI accept
ALGORITHMS = {"semo": Mutation.ONE_BIT, "gsemo": Mutation.STANDARD}
VARIANTS = {"original": Selection.UNIFORM_PARENT,
            "modified": Selection.SLOT_PARENT}


@dataclass(frozen=True)
class AlgorithmSpec:
    mutation: Mutation
    selection: Selection
    max_iterations: Optional[int] = None  # None: benchmark default cutoff

    @property
    def algorithm_name(self) -> str:
        return "semo" if self.mutation is Mutation.ONE_BIT else "gsemo"

    @property
    def variant_name(self) -> str:
        return ("original" if self.selection is Selection.UNIFORM_PARENT
                else "modified")

    @classmethod
    def semo(cls, max_iterations: Optional[int] = None,
             modified: bool = False) -> "AlgorithmSpec":
        sel = Selection.SLOT_PARENT if modified else Selection.UNIFORM_PARENT
        return cls(Mutation.ONE_BIT, sel, max_iterations)

    @classmethod
    def gsemo(cls, max_iterations: Optional[int] = None,
              modified: bool = False) -> "AlgorithmSpec":
        sel = Selection.SLOT_PARENT if modified else Selection.UNIFORM_PARENT
        return cls(Mutation.STANDARD, sel, max_iterations)

    @classmethod
    def from_names(cls, algorithm: str, variant: str = "original",
                   max_iterations: Optional[int] = None) -> "AlgorithmSpec":
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        return cls(ALGORITHMS[algorithm], VARIANTS[variant], max_iterations)

    def cutoff(self, bspec: BenchmarkSpec) -> int:
        """The iteration cutoff: ``max_iterations``, or by default
        ``MAX_ITERATIONS_C`` times the benchmark's reference growth law."""
        if self.max_iterations is not None:
            return self.max_iterations
        return int(reference_model(bspec.kind, bspec.n, bspec.k,
                                   cal.MAX_ITERATIONS_C))


def _randbelow(getrandbits, n: int) -> int:
    """Uniform integer in [0, n) from a ``getrandbits`` source.

    Same rejection scheme the stdlib uses under ``randrange``, inlined
    here because the run loop draws hundreds of millions of indices and
    the stdlib wrapper's argument handling dominates otherwise.
    """
    k = (n - 1).bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@lru_cache(maxsize=None)
def _flip_count_cdf(n: int) -> tuple[float, ...]:
    """Cumulative distribution of Binomial(n, 1/n) flip counts."""
    if n == 1:
        return (0.0, 1.0)
    probs = [(1.0 - 1.0 / n) ** n]
    for k in range(n):
        probs.append(probs[-1] * (n - k) / ((k + 1) * (n - 1)))
    cdf, acc = [], 0.0
    for p in probs:
        acc = min(acc + p, 1.0)
        cdf.append(acc)
    cdf[-1] = 1.0
    return tuple(cdf)


def standard_flip_mask(n: int, cdf: tuple[float, ...], rng) -> int:
    """Bit mask of positions flipped by standard bit mutation.

    Draws the flip count from Binomial(n, 1/n) and then a uniform set of
    that many distinct positions, which is distributed identically to n
    independent per-bit coin flips.
    """
    u = rng.random()
    k = 0
    while u > cdf[k]:
        k += 1
    if k == 0:
        return 0
    getrandbits = rng.getrandbits
    if k == 1:
        return 1 << _randbelow(getrandbits, n)
    mask = 0
    left = k
    while left:
        b = 1 << _randbelow(getrandbits, n)
        if not mask & b:
            mask |= b
            left -= 1
    return mask


def mutate_one_bit(x: Individual, rng) -> Individual:
    """Copy of x with exactly one uniformly chosen position flipped."""
    return Individual(x.n, x.bits ^ (1 << _randbelow(rng.getrandbits, x.n)))


def mutate_standard(x: Individual, rng) -> Individual:
    """Copy of x with each position flipped independently w.p. 1/n."""
    return Individual(x.n, x.bits ^ standard_flip_mask(x.n, _flip_count_cdf(x.n), rng))


def select_parent_uniform(pop: Population, rng) -> int:
    """Bits of a uniformly chosen member; population must be non-empty."""
    if not len(pop):
        raise ValueError("cannot select from an empty population")
    return pop.xs[_randbelow(rng.getrandbits, len(pop.xs))]


def select_parent_slot(pop: Population, rng,
                       slot_count: Optional[int] = None) -> Optional[int]:
    """Slot-based parent draw: uniform slot index, None if it is empty."""
    if not len(pop):
        raise ValueError("cannot select from an empty population")
    s = _randbelow(rng.getrandbits,
                   pop.slot_count if slot_count is None else slot_count)
    return pop.member_at_slot(s)


class TrajectoryRecord(NamedTuple):
    """State snapshot at iteration t.

    ``max_g1``/``z_count`` (the best cooperative level and how many members
    attain it) are meaningful for cocz only and None otherwise. ``d_pf`` is
    the population's distance to the extremal front points. ``covered`` is
    the number of Pareto-front values present, ``front_covered`` the same
    as a fraction of the front size. A named tuple, because a run with
    trajectories builds one per record.
    """

    t: int
    pop_size: int
    max_g1: Optional[int]
    z_count: Optional[int]
    d_pf: int
    covered: int
    front_covered: float
    slot_occupancy: Optional[int] = None


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one run: runtimes, censoring, and sampled trajectory."""

    benchmark: str
    n: int
    k: Optional[int]
    algorithm: str
    variant: str
    seed: int
    runtime_evals: int
    runtime_iters: int
    censored: bool
    final_pop_size: int
    final_covered: int
    final_front_covered: float
    interior_init: bool = False
    trajectory: tuple[TrajectoryRecord, ...] = field(default=())


class RunState:
    """Mutable per-run state; confined to a single thread."""

    __slots__ = ("bspec", "alg", "kernels", "pop", "rng", "n", "t",
                 "evaluations", "flip_cdf", "slot_draw_count")

    def __init__(self, bspec: BenchmarkSpec, alg: AlgorithmSpec, rng,
                 slot_count_offset: int = 0, interior_init: bool = False):
        self.bspec = bspec
        self.alg = alg
        self.kernels = bspec.kernels()
        self.rng = rng
        self.n = bspec.n
        self.t = 0
        # slot_count_offset is a fault-injection hook for the harness'
        # negative control; leave at 0 for a faithful run.
        self.slot_draw_count = self.kernels.slot_count + slot_count_offset
        if self.slot_draw_count < 1:
            raise ValueError("slot draw range must stay positive")
        self.flip_cdf = (_flip_count_cdf(self.n)
                         if alg.mutation is Mutation.STANDARD else None)
        bits = rng.getrandbits(self.n)
        if interior_init:
            if bspec.kind is not Kind.OJZJ:
                raise ValueError("interior initialization is ojzj-specific")
            lo, hi = bspec.k, self.n - bspec.k
            if lo > hi:
                raise ValueError("interior range empty for this gap size")
            while not lo <= bits.bit_count() <= hi:
                bits = rng.getrandbits(self.n)
        self.pop = Population(self.kernels.slot_count,
                              self.kernels.slot_from_pair,
                              self.kernels.is_front_pair)
        f1, f2 = self.kernels.evaluate(bits)
        self.pop.insert(bits, f1, f2)
        self.evaluations = 1

    @property
    def covered(self) -> int:
        return self.pop.front_count

    @property
    def is_covering(self) -> bool:
        return self.pop.front_count == self.kernels.front_size


def init_state(bspec: BenchmarkSpec, alg: AlgorithmSpec, seed: int,
               interior_init: bool = False,
               slot_count_offset: int = 0) -> RunState:
    """Fresh run state: seeded generator plus one evaluated individual."""
    return RunState(bspec, alg, random.Random(seed),
                    slot_count_offset=slot_count_offset,
                    interior_init=interior_init)


def step(state: RunState) -> RunState:
    """One full iteration: select, mutate, evaluate, update, t += 1.

    Under slot selection an empty draw is an idle iteration that leaves
    everything but the iteration counter unchanged. Every created
    offspring is evaluated exactly once, dominated or not.
    """
    rng = state.rng
    pop = state.pop
    getrandbits = rng.getrandbits
    if state.alg.selection is Selection.SLOT_PARENT:
        parent = pop.member_at_slot(_randbelow(getrandbits,
                                               state.slot_draw_count))
        if parent is None:
            state.t += 1
            return state
    else:
        parent = pop.xs[_randbelow(getrandbits, len(pop.xs))]
    if state.alg.mutation is Mutation.ONE_BIT:
        y = parent ^ (1 << _randbelow(getrandbits, state.n))
    else:
        y = parent ^ standard_flip_mask(state.n, state.flip_cdf, rng)
    f1, f2 = state.kernels.evaluate(y)
    state.evaluations += 1
    pop.insert(y, f1, f2)
    state.t += 1
    return state


def measure(state: RunState, record_slots: bool = False) -> TrajectoryRecord:
    """Snapshot of the tracked processes, computed in one population pass."""
    pop = state.pop
    kern = state.kernels
    span = kern.slot_span
    d_pf = min(min(s, span - s) for s in pop.slots)
    if state.bspec.kind is Kind.COCZ:
        half = state.n // 2
        best, z = -1, 0
        for f1, f2 in zip(pop.f1s, pop.f2s):
            g1 = (f1 + f2 - half) >> 1
            if g1 > best:
                best, z = g1, 1
            elif g1 == best:
                z += 1
        max_g1: Optional[int] = best
        z_count: Optional[int] = z
    else:
        max_g1 = None
        z_count = None
    occupancy = None
    if record_slots:
        occupancy = 0
        for s in pop.slots:
            occupancy |= 1 << s
    covered = pop.front_count
    return TrajectoryRecord(t=state.t, pop_size=len(pop), max_g1=max_g1,
                            z_count=z_count, d_pf=d_pf, covered=covered,
                            front_covered=covered / kern.front_size,
                            slot_occupancy=occupancy)


def default_sample_period(n: int) -> int:
    """Trajectory sampling stride: every ceil(n^2/200) iterations."""
    return max(1, math.ceil(n * n / 200))


def run_until_cover(bspec: BenchmarkSpec, alg: AlgorithmSpec, seed: int, *,
                    interior_init: bool = False,
                    record_trajectory: bool = True,
                    sample_every: Optional[int] = None,
                    sample_at: tuple[int, ...] = (),
                    slot_count_offset: int = 0) -> TrialResult:
    """Run one trial until the population covers the Pareto front or the
    iteration cutoff is reached (a censored trial, flagged, not an error).

    Trajectory records are taken at t=0, every ``sample_every`` iterations
    (default ceil(n^2/200)), whenever the covered-front count changes, at
    every iteration listed in ``sample_at``, and at termination. The loop
    runs in segments that end at the next period tick, forced point or
    cutoff, and takes the scheduled record at the segment's end; a change
    of the covered count can only follow an insert, so its record is taken
    right there. Only a record after an insert calls ``measure``; any other
    record copies the previous one with the new ``t``, since ``measure``
    reads nothing that an equal-value replacement changes.

    Zero-flip copies of the parent are not evaluated, omm and ojzj values
    are read from ``Kernels.values`` without a call, and offspring weakly
    dominated by a member are not passed to ``Population.insert`` (one of
    equal value replaces that member in place). Only idle draws are
    counted: every other iteration created one offspring, so the
    evaluations after t iterations are t + 1 - idle, as ``step`` counts
    them.

    The fate of an offspring is memoised per value class (its ones count,
    plus its first-half count times n + 1 on cocz): -1 for dropped, the
    member index for an equal-value replacement. A repeat of a class skips
    the evaluation and the dominance test, and only does the replacement.
    The memo is exact because a fate depends on nothing but the class's
    objective pair and ``f1s``/``f2s``, which only an insert changes; it
    is cleared after every insert and lives for one run.
    """
    state = init_state(bspec, alg, seed, interior_init=interior_init,
                       slot_count_offset=slot_count_offset)
    max_iters = alg.cutoff(bspec)
    period = sample_every if sample_every else default_sample_period(bspec.n)
    # a segment of the loop runs up to the next due record: the next
    # period tick, forced point or the cutoff (t=0 is always recorded)
    if record_trajectory:
        due = iter(sorted({int(s) for s in sample_at
                           if 0 < int(s) < max_iters}))
        next_tick = period
    else:
        due = iter(())
        next_tick = max_iters
    next_due = next(due, max_iters)

    records: list[TrajectoryRecord] = []
    tail = None  # fields after t of the last measurement
    if record_trajectory:
        records.append(measure(state))
        tail = records[0][1:]
    dirty = False  # an insert happened since the last measurement
    # builds a copied record without the named tuple's Python-level __new__
    tuple_new = tuple.__new__

    # hot loop: everything below is bound to locals on purpose, and index
    # draws inline the same getrandbits rejection scheme as _randbelow.
    # The first test of Population.insert is inlined too, so that only
    # offspring that change the value set call it.
    rng = state.rng
    pop = state.pop
    xs = pop.xs
    f1s = pop.f1s
    f2s = pop.f2s
    slots = pop.slots
    by_slot = pop._by_slot
    member_at_slot = by_slot.get
    insert = pop.insert
    kern = state.kernels
    evaluate = kern.evaluate
    values = kern.values
    half_mask = kern.half_mask
    # value class -> fate of an offspring in it since the last insert:
    # -1 dropped as strictly dominated, idx >= 0 replaces member idx
    fates: dict[int, int] = {}
    fate_get = fates.get
    getrandbits = rng.getrandbits
    random_f = rng.random
    n = state.n
    n1 = n + 1
    nbits = (n - 1).bit_length()
    cdf = state.flip_cdf
    one_bit = alg.mutation is Mutation.ONE_BIT
    if not one_bit:
        # the flip count is bisect_left(cdf, u); the first two are tested
        # directly
        c0, c1 = cdf[0], cdf[1]
    slot_sel = alg.selection is Selection.SLOT_PARENT
    slot_draw = state.slot_draw_count
    sbits = (slot_draw - 1).bit_length()
    front_size = kern.front_size
    front_count = pop.front_count
    m = len(xs)
    mbits = (m - 1).bit_length()
    t = 0
    idle = 0
    covered = front_count == front_size

    while not covered and t < max_iters:
        stop = next_tick if next_tick < next_due else next_due
        for t in range(t + 1, stop + 1):
            if slot_sel:
                s = getrandbits(sbits)
                while s >= slot_draw:
                    s = getrandbits(sbits)
                parent = member_at_slot(s)
                if parent is None:
                    idle += 1
                    continue
            else:
                r = getrandbits(mbits)
                while r >= m:
                    r = getrandbits(mbits)
                parent = xs[r]
            if one_bit:
                k = 1
            else:
                u = random_f()
                if u <= c0:
                    continue  # a copy of the parent changes nothing
                k = 1 if u <= c1 else bisect_left(cdf, u)
            pos = getrandbits(nbits)
            while pos >= n:
                pos = getrandbits(nbits)
            mask = 1 << pos
            while k > 1:
                pos = getrandbits(nbits)
                while pos >= n:
                    pos = getrandbits(nbits)
                b = 1 << pos
                if not mask & b:
                    mask |= b
                    k -= 1
            y = parent ^ mask
            key = y.bit_count()
            if half_mask:
                key += (y & half_mask).bit_count() * n1
            fate = fate_get(key)
            if fate is not None:
                if fate >= 0:
                    xs[fate] = y
                    by_slot[slots[fate]] = y
                continue
            f1, f2 = values[key] if values else evaluate(y)
            idx = bisect_left(f1s, f1)
            if idx < m and f2s[idx] >= f2:
                # weakly dominated: dropped, or at equal value (hence the
                # same slot) it takes the member's place
                if f2s[idx] == f2 and f1s[idx] == f1:
                    xs[idx] = y
                    by_slot[slots[idx]] = y
                    fates[key] = idx
                else:
                    fates[key] = -1
                continue
            insert(y, f1, f2)
            fates.clear()
            dirty = True
            m = len(xs)
            mbits = (m - 1).bit_length()
            if pop.front_count != front_count:
                front_count = pop.front_count
                if record_trajectory:
                    state.t = t
                    records.append(measure(state))
                    tail = records[-1][1:]
                    dirty = False
                if front_count == front_size:
                    covered = True
                    break
        else:
            # the segment ran to its due record
            if record_trajectory:
                if records[-1][0] != t:  # not taken at a change
                    if dirty:
                        state.t = t
                        rec = measure(state)
                        tail = rec[1:]
                        dirty = False
                    else:
                        rec = tuple_new(TrajectoryRecord, (t,) + tail)
                    records.append(rec)
                if t == next_tick:
                    next_tick += period
                if t == next_due:
                    next_due = next(due, max_iters)

    state.t = t
    state.evaluations = t + 1 - idle
    final = records[-1] if record_trajectory else measure(state)
    return TrialResult(
        benchmark=bspec.kind.value,
        n=bspec.n,
        k=bspec.k,
        algorithm=alg.algorithm_name,
        variant=alg.variant_name,
        seed=seed,
        runtime_evals=state.evaluations,
        runtime_iters=t,
        censored=not covered,
        final_pop_size=final.pop_size,
        final_covered=final.covered,
        final_front_covered=final.front_covered,
        interior_init=interior_init,
        trajectory=tuple(records),
    )


def run_offspring_budget(bspec: BenchmarkSpec, alg: AlgorithmSpec, seed: int,
                         offspring_target: int,
                         max_iterations: Optional[int] = None,
                         interior_init: bool = False,
                         slot_count_offset: int = 0) -> RunState:
    """Step until exactly ``offspring_target`` offspring were created.

    Idle iterations do not count toward the target, so for the modified
    variants this runs a variable number of iterations. Used by the
    modified-vs-original equivalence harness.
    """
    state = init_state(bspec, alg, seed, interior_init=interior_init,
                       slot_count_offset=slot_count_offset)
    cap = max_iterations if max_iterations is not None else (
        1000 * (offspring_target + 1) * state.slot_draw_count)
    slot_sel = alg.selection is Selection.SLOT_PARENT
    while state.evaluations - 1 < offspring_target:
        if slot_sel and min(state.pop.slots) >= state.slot_draw_count:
            # possible only under a broken slot_count_offset: no member is
            # reachable by any slot draw, so the run would idle forever
            raise RuntimeError(
                "selection deadlocked: every member sits outside the slot "
                "draw range")
        if state.t >= cap:
            raise RuntimeError(
                f"offspring budget not reached within {cap} iterations")
        step(state)
    return state
