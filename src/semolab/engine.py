"""The one-offspring evolutionary loop, parent selection, and trajectory
instrumentation.

Two mutations of the packed bit string (flip exactly one uniform position;
flip each position independently with probability 1/n) crossed with two
parent selection rules give the four algorithm variants:

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

``run_until_cover`` (until cover or the cutoff; a run spends millions of
iterations here) and ``run_offspring_budget`` (until exactly m offspring)
share one loop. ``step`` is the readable reference implementation of a
single iteration; only tests call it, as the oracle the loop is held to
state for state. The loop has two implementations that give the same
bytes. Standard bit mutation (GSEMO) until cover runs in ``_loop.c``,
compiled on first use (see ``_loop``), which advances the run's Mersenne
Twister in place, word for word, and applies ``Population.insert``'s
update to its own copy of the members, and writes the change points of
a run with trajectories into a buffer: a run is one foreign call, and
the population is copied back when it ends. One-bit mutation (SEMO),
budget runs and every run when the kernel cannot be loaded take
``_python_loop``; budget runs stay there until the suite-controls
benchmark's memory stops growing with its rounds (ROADMAP items 8 and 9).
An iteration pays only for what it draws:

* Zero-flip copies stop after their draws, omm and ojzj offspring read
  their objective pair from the per-spec table ``Kernels.values`` (cocz
  calls ``evaluate``), and weakly dominated offspring never reach the
  population update.
* An offspring's fate (dropped as strictly dominated, replaces member idx
  at equal value, or changes the value set) depends only on its objective
  pair and the population's values, and the pair depends only on its
  value class: the ones count, plus the first-half count times n + 1 on
  cocz (``Kernels.half_mask``). ``_python_loop`` alone keeps a per-run
  memo from class to fate, so ``evaluate``, the bisection and the
  dominance test run once per class between two inserts (the kernel
  evaluates an offspring faster than a memo could be read). Only
  ``Population.insert`` changes the values, and the memo is cleared
  after each; an equal-value replacement changes the member's bits, not
  the values or their order, so the memoised index stays right.
* Only idle slot draws are counted. Every other iteration created one
  offspring, evaluated or not, so the evaluations after t iterations are
  t + 1 - idle and both runtimes match ``step``'s.
* With trajectories on, the loop records change points only: ``measure``
  at t=0 and after each insert, the only place where a record's fields
  other than ``t`` can change, so no iteration tests a schedule. The
  kernel writes each change point after an insert into a buffer, by
  ``measure``'s formulas, and the run stays one foreign call.
  ``_sample`` derives the sampled trajectory from them when the run ends,
  with one step per change point.

A sampled trajectory is a ``Trajectory``: runs of equal records, one
record and the ticks it holds at, so the records between two change
points cost one int each. The CSV writer and loader work on the runs
too; only a caller that iterates over it sees one record per tick.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import add, itemgetter
from typing import NamedTuple, Optional

from . import calibration as cal
from .benchmarks import BenchmarkSpec, Kind
from .bounds import reference_model
from .core import Population


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
    """How a run goes: a run is (benchmark, ``AlgorithmSpec``, seed)."""

    mutation: Mutation
    selection: Selection
    max_iterations: Optional[int] = None  # None: the runner's default cap
    interior_init: bool = False  # ojzj: the first member has k..n-k ones
    slot_count_offset: int = 0  # fault hook of the negative controls only

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


def select_parent_uniform(pop: Population, rng) -> int:
    """Bits of a uniformly chosen member; population must be non-empty."""
    if not len(pop):
        raise ValueError("cannot select from an empty population")
    return pop.xs[_randbelow(rng.getrandbits, len(pop.xs))]


def select_parent_slot(pop: Population, rng) -> Optional[int]:
    """Slot-based parent draw: uniform slot index, None if it is empty."""
    if not len(pop):
        raise ValueError("cannot select from an empty population")
    return pop.member_at_slot(_randbelow(rng.getrandbits, pop.slot_count))


class TrajectoryRecord(NamedTuple):
    """State snapshot at iteration t.

    ``max_g1``/``z_count`` (the best cooperative level and how many members
    attain it) are meaningful for cocz only and None otherwise. ``d_pf`` is
    the population's distance to the extremal front points. ``covered`` is
    the number of Pareto-front values present, ``front_covered`` the same
    as a fraction of the front size. A named tuple, because a run with
    trajectories builds one per change point.
    """

    t: int
    pop_size: int
    max_g1: Optional[int]
    z_count: Optional[int]
    d_pf: int
    covered: int
    front_covered: float


_new = tuple.__new__


class Trajectory:
    """A sampled trajectory stored as runs of equal records.

    ``runs`` is a tuple of ``(record, ts)`` pairs: the fields of ``record``
    after ``t`` hold at every t of ``ts``, an ascending tuple of ints, and
    neighbouring runs differ in those fields, so equal sequences of
    records have equal runs. A run records what changes once; its ticks
    cost one int each.

    Iterated, it gives the tuple of its records in t order, one record per
    tick: the stored record itself at its own t and a copy with ``t``
    replaced elsewhere; ``len`` counts the ticks. It compares with a tuple
    or another ``Trajectory`` record by record, and hashes and prints as
    the tuple of its records.
    """

    __slots__ = ("runs", "_len")

    def __init__(self, runs=()):
        self.runs = tuple(runs)
        self._len = sum(map(len, map(itemgetter(1), self.runs)))

    @classmethod
    def of(cls, records) -> "Trajectory":
        """The trajectory of ``records``, given in ascending t."""
        runs: list[tuple[TrajectoryRecord, list[int]]] = []
        tail = None
        last_t = None
        for rec in records:
            t = rec[0]
            if last_t is not None and t < last_t:
                raise ValueError(f"trajectory records out of t order: "
                                 f"t={t} after t={last_t}")
            last_t = t
            if rec[1:] != tail:
                tail = rec[1:]
                runs.append((rec, []))
            runs[-1][1].append(t)
        return cls((rec, tuple(ts)) for rec, ts in runs)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for rec, ts in self.runs:
            own = rec[0]
            tail = rec[1:]
            for t in ts:
                yield rec if t == own else _new(TrajectoryRecord, (t,) + tail)

    def __eq__(self, other):
        if isinstance(other, (Trajectory, tuple)):
            return self._len == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


_NO_TRAJECTORY = Trajectory()


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one run: runtimes, censoring, and sampled trajectory.

    ``trajectory`` is a ``Trajectory``; a tuple or list of records given
    in its place is stored as one.
    """

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
    trajectory: Trajectory = _NO_TRAJECTORY

    def __post_init__(self):
        if type(self.trajectory) is not Trajectory:
            object.__setattr__(self, "trajectory",
                               Trajectory.of(self.trajectory))


class RunState:
    """Mutable state of a run of ``alg`` on ``bspec``, confined to one
    thread: a kernel run advances ``rng`` in place with the GIL released."""

    __slots__ = ("bspec", "alg", "kernels", "pop", "rng", "n", "t",
                 "evaluations", "flip_cdf", "slot_draw_count")

    def __init__(self, bspec: BenchmarkSpec, alg: AlgorithmSpec, rng):
        self.bspec = bspec
        self.alg = alg
        self.kernels = bspec.kernels()
        self.rng = rng
        self.n = bspec.n
        self.t = 0
        self.slot_draw_count = self.kernels.slot_count + alg.slot_count_offset
        if self.slot_draw_count < 1:
            raise ValueError("slot draw range must stay positive")
        self.flip_cdf = (_flip_count_cdf(self.n)
                         if alg.mutation is Mutation.STANDARD else None)
        bits = rng.getrandbits(self.n)
        if alg.interior_init:
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
    def is_covering(self) -> bool:
        return self.pop.front_count == self.kernels.front_size


def init_state(bspec: BenchmarkSpec, alg: AlgorithmSpec,
               seed: int) -> RunState:
    """Fresh run state: seeded generator plus one evaluated individual."""
    return RunState(bspec, alg, random.Random(seed))


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


def measure(state: RunState) -> TrajectoryRecord:
    """The trajectory record of ``state`` at its t. The Python loop calls
    it once per change point; the kernel writes the same fields by the
    same formulas (``record`` in ``_loop.c``).

    ``d_pf`` is the least of min(s, span - s) over the member slots, that
    is min(min(slots), span - max(slots)). On cocz f1 + f2 = n/2 + 2*g1,
    so the members of best cooperative level g1 are those of largest
    f1 + f2.
    """
    pop = state.pop
    kern = state.kernels
    slots = pop.slots
    d_pf = min(min(slots), kern.slot_span - max(slots))
    if state.bspec.kind is Kind.COCZ:
        sums = list(map(add, pop.f1s, pop.f2s))
        top = max(sums)
        max_g1: Optional[int] = (top - state.n // 2) >> 1
        z_count: Optional[int] = sums.count(top)
    else:
        max_g1 = None
        z_count = None
    covered = pop.front_count
    # positional: building a named tuple from keywords costs several times
    # as much, once per change point
    return _new(TrajectoryRecord, (state.t, len(slots), max_g1, z_count,
                                   d_pf, covered, covered / kern.front_size))


def default_sample_period(n: int) -> int:
    """Trajectory sampling stride: every ceil(n^2/200) iterations."""
    return max(1, math.ceil(n * n / 200))


def _sample(changes: list[TrajectoryRecord], end: int, period: int,
            sample_at: tuple[int, ...]) -> Trajectory:
    """The sampled trajectory of a run that stopped at t = ``end``.

    ``changes`` holds the run's change points in strictly increasing t,
    all at most ``end``: ``measure`` at t=0 and after every insert.
    Between two of them nothing a record holds changes, so the state at t
    is the last change point at or before t. A record is due at t=0, at
    every multiple of ``period``, at every positive point of
    ``sample_at``, at every change of the covered count, and at ``end``,
    each only up to ``end``. A record due at a change point is that
    change point; any other is the state with ``t`` replaced.

    The work is done once per change point: each change point with a due
    point gives one run of the trajectory, its record and the due points
    before the next change point, merged into the run before it when
    their fields are equal. No record is built per tick, and the ticks of
    a segment are ranges over the period grid, cut only at the due points
    off it.
    """
    # the due points off the period grid (sample_at and end), ascending,
    # then a stop past end; every period tick is due anyway
    due = sorted({s for s in (end, *map(int, sample_at))
                  if 0 < s <= end and s % period})
    due.append(end + 1)
    i = 0
    d = due[0]  # the next of them, at or after t
    recs: list[TrajectoryRecord] = []
    runs: list[list[int]] = []
    fields = None
    ts: list[int] = []
    covered = changes[0][5]
    times = [*map(itemgetter(0), changes), end + 1]
    for rec, t, stop in zip(changes, times, times[1:]):
        tick = t + -t % period  # the first period tick at or after t
        if rec[5] != covered or d == t:  # t is due
            covered = rec[5]
            lone = tick != t  # and the range below does not hold it
        elif tick < stop or d < stop:
            lone = False
        else:
            continue  # nothing is due before the next change point
        if rec[1:] != fields:
            fields = rec[1:]
            ts = []
            recs.append(rec)
            runs.append(ts)
        if lone:
            ts.append(t)
        if d == t:
            i += 1
            d = due[i]
        while d < stop:
            ts.extend(range(tick, d, period))
            ts.append(d)
            tick = d - d % period + period
            i += 1
            d = due[i]
        ts.extend(range(tick, stop, period))
    return Trajectory(zip(recs, map(tuple, runs)))


def run_until_cover(bspec: BenchmarkSpec, alg: AlgorithmSpec, seed: int, *,
                    record_trajectory: bool = True,
                    sample_at: tuple[int, ...] = ()) -> TrialResult:
    """Run one trial until the population covers the Pareto front or the
    iteration cutoff is reached (a censored trial, flagged, not an error).

    Trajectory records are taken at t=0, every ``default_sample_period``
    iterations, whenever the covered-front count changes, at every
    iteration listed in ``sample_at``, and at termination. The loop
    itself keeps no schedule: it takes a change point (``measure``, or
    the kernel's record of the same fields) at t=0 and after every insert,
    and ``_sample`` builds the trajectory's runs from these change points
    when the run ends. That is exact because a record holds nothing that
    an equal-value replacement changes.

    The loop skips what changes nothing (see the module docstring) and
    counts only idle draws, so the evaluations after t iterations are
    t + 1 - idle, as ``step`` counts them. Standard bit mutation runs in
    the kernel of ``_loop`` when it can be built. The kernel makes the
    inserts, the cover test and the change points itself, so the run is
    one foreign call with trajectories on or off.
    """
    state = init_state(bspec, alg, seed)
    max_iters = alg.cutoff(bspec)
    period = default_sample_period(bspec.n)
    # one record per change of the population's value set, t=0 first
    changes = [measure(state)] if record_trajectory else None
    lib = None
    if alg.mutation is Mutation.STANDARD:
        from . import _loop
        lib = _loop.library()
    if lib is None:
        t, idle = _python_loop(state, max_iters, changes)
    else:
        t, idle = _loop.run(lib, state, max_iters, changes)
    state.t = t
    state.evaluations = t + 1 - idle
    final = changes[-1] if record_trajectory else measure(state)
    return TrialResult(
        benchmark=bspec.kind.value,
        n=bspec.n,
        k=bspec.k,
        algorithm=alg.algorithm_name,
        variant=alg.variant_name,
        seed=seed,
        runtime_evals=state.evaluations,
        runtime_iters=t,
        censored=state.pop.front_count != state.kernels.front_size,
        final_pop_size=final.pop_size,
        final_covered=final.covered,
        final_front_covered=final.front_covered,
        interior_init=alg.interior_init,
        trajectory=(_sample(changes, t, period, sample_at)
                    if record_trajectory else _NO_TRAJECTORY),
    )


def _python_loop(state: RunState, max_iters: int,
                 changes: Optional[list[TrajectoryRecord]],
                 offspring_target: Optional[int] = None) -> tuple[int, int]:
    """The run loop in Python; returns the last iteration and the idle
    draws. With ``changes`` a list, ``measure`` is appended to it after
    every insert. With ``offspring_target`` the run goes on past cover
    until that many offspring: each pass of the ``for`` ends at an insert
    or where the target falls if no more draws idle, and the checks a
    ``step``-driven run makes before each iteration run between passes."""
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
    one_bit = state.alg.mutation is Mutation.ONE_BIT
    if not one_bit:
        # the flip count is bisect_left(cdf, u); the first two are tested
        # directly
        c0, c1 = cdf[0], cdf[1]
    slot_sel = state.alg.selection is Selection.SLOT_PARENT
    slot_draw = state.slot_draw_count
    sbits = (slot_draw - 1).bit_length()
    front_size = kern.front_size
    budget = offspring_target is not None
    m = len(xs)
    mbits = (m - 1).bit_length()
    t = 0
    idle = 0
    stop = max_iters

    while True:
        if budget:
            if t - idle >= offspring_target:
                return t, idle
            if slot_sel and min(slots) >= slot_draw:
                # only a broken slot_count_offset strands every member
                raise RuntimeError("selection deadlocked: every member sits "
                                   "outside the slot draw range")
            if t >= max_iters:
                raise RuntimeError(f"offspring budget not reached within "
                                   f"{max_iters} iterations")
            stop = min(offspring_target + idle, max_iters)
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
            m = len(xs)
            mbits = (m - 1).bit_length()
            if changes is not None:
                state.t = t
                changes.append(measure(state))
            # past cover the values freeze, but t and the generator do not
            if budget or pop.front_count == front_size:
                break
        if not budget:
            return t, idle


def run_offspring_budget(bspec: BenchmarkSpec, alg: AlgorithmSpec, seed: int,
                         offspring_target: int) -> RunState:
    """Run until exactly ``offspring_target`` offspring were created.

    Idle iterations do not count toward the target, so for the modified
    variants this runs a variable number of iterations; cover does not
    stop it. Used by the modified-vs-original equivalence harness. It runs
    ``_python_loop`` for both mutations and leaves the state that repeated
    ``step`` calls leave. ``alg.max_iterations`` caps the iterations
    (None: 1000 per offspring and drawable slot); reaching it raises.
    """
    if offspring_target < 0:
        raise ValueError(f"offspring_target must be >= 0, got "
                         f"{offspring_target}")
    state = init_state(bspec, alg, seed)
    cap = alg.max_iterations if alg.max_iterations is not None else (
        1000 * (offspring_target + 1) * state.slot_draw_count)
    state.t, idle = _python_loop(state, cap, None, offspring_target)
    state.evaluations = state.t + 1 - idle
    return state
