"""Mutation masks, parent selection, the iteration step, and full runs."""

import bisect
import hashlib
import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from semolab import _loop, engine
from semolab.benchmarks import BenchmarkSpec, Kind
from semolab.core import Population
from semolab.engine import (AlgorithmSpec, Mutation, Selection, _flip_count_cdf,
                            default_sample_period, init_state, measure,
                            run_offspring_budget, run_until_cover,
                            select_parent_slot, select_parent_uniform,
                            standard_flip_mask, step)
from semolab.experiments import (load_results, write_trajectories_csv,
                                 write_trials_csv)


class ScriptedRng:
    """Deterministic stand-in replaying scripted draws."""

    def __init__(self, bits=(), uniforms=()):
        self._bits = list(bits)
        self._uniforms = list(uniforms)

    def getrandbits(self, k):
        value = self._bits.pop(0)
        assert value < (1 << k) if k else value == 0
        return value

    def random(self):
        return self._uniforms.pop(0)


def bits_of(s: str) -> int:
    """Packed bits of a 0/1 string whose character i is bit i."""
    return int(s[::-1], 2)


def one_bit_offspring(n, x, rng, trials):
    """The offspring of ``trials`` one-bit ``step``s of SEMO on omm, each
    from a population holding only ``x``, all drawn from ``rng``. Every omm
    value is Pareto-optimal and an offspring differs from its parent in
    the ones count, so the offspring always joins."""
    spec = BenchmarkSpec(Kind.OMM, n)
    kern = spec.kernels()
    state = init_state(spec, AlgorithmSpec.semo(), seed=0)
    state.rng = rng
    for _ in range(trials):
        state.pop = Population(kern.slot_count, kern.slot_from_pair,
                               kern.is_front_pair)
        state.pop.insert(x, *kern.evaluate(x))
        step(state)
        assert len(state.pop) == 2
        yield next(y for y in state.pop.xs if y != x)


class TestMutateOneBit:
    def test_hamming_distance_exactly_one(self):
        rng = random.Random(3)
        x = bits_of("1100101011")
        for y in one_bit_offspring(10, x, rng, 200):
            assert (x ^ y).bit_count() == 1

    def test_flip_position_uniform(self):
        rng = random.Random(12345)
        n, trials = 10, 100_000
        counts = [0] * n
        for y in one_bit_offspring(n, 0, rng, trials):
            counts[y.bit_length() - 1] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01


class TestMutateStandard:
    def test_flip_count_cdf_matches_scipy(self):
        for n in (2, 10, 50):
            ours = _flip_count_cdf(n)
            reference = stats.binom.cdf(np.arange(n + 1), n, 1.0 / n)
            assert np.allclose(ours, reference, atol=1e-12)

    def test_no_change_probability(self):
        rng = random.Random(99)
        n, trials = 10, 100_000
        cdf = _flip_count_cdf(n)
        unchanged = 0
        full_flips = 0
        for _ in range(trials):
            mask = standard_flip_mask(n, cdf, rng)
            if not mask:
                unchanged += 1
            if mask.bit_count() == n:
                full_flips += 1
        expected = (1 - 1 / n) ** n
        assert abs(unchanged / trials - expected) < 0.01
        assert full_flips == 0  # probability n^-n, unobservable here

    def test_expected_flip_count(self):
        rng = random.Random(7)
        n, trials = 50, 100_000
        cdf = _flip_count_cdf(n)
        total = sum(standard_flip_mask(n, cdf, rng).bit_count()
                    for _ in range(trials))
        assert abs(total / trials - 1.0) < 0.02

    def test_zero_flips_allowed(self):
        rng = random.Random(4)
        cdf = _flip_count_cdf(4)
        assert any(standard_flip_mask(4, cdf, rng) == 0 for _ in range(200))

    def test_mask_has_k_distinct_positions(self):
        # scripted: the uniform picks the flip count, a position drawn again
        # is skipped and a draw >= n is rejected
        n = 6
        cdf = _flip_count_cdf(n)
        three = ScriptedRng(bits=[1, 7, 1, 5, 6, 3],
                            uniforms=[(cdf[2] + cdf[3]) / 2])
        assert standard_flip_mask(n, cdf, three) == 0b101010
        one = ScriptedRng(bits=[7, 4], uniforms=[(cdf[0] + cdf[1]) / 2])
        assert standard_flip_mask(n, cdf, one) == 1 << 4
        none = ScriptedRng(uniforms=[cdf[0] / 2])
        assert standard_flip_mask(n, cdf, none) == 0
        # live: the mask has exactly as many positions as the flip count
        # its first uniform selects
        n = 12
        cdf = _flip_count_cdf(n)
        rng = random.Random(17)
        for _ in range(2000):
            saved = rng.getstate()
            k = bisect.bisect_left(cdf, rng.random())
            rng.setstate(saved)
            mask = standard_flip_mask(n, cdf, rng)
            assert mask.bit_count() == k and mask < 1 << n


def cocz_pop(n, members):
    """Population for cocz at size n from (bits) ints."""
    kern = BenchmarkSpec(Kind.COCZ, n).kernels()
    pop = Population(kern.slot_count, kern.slot_from_pair, kern.is_front_pair)
    for bits in members:
        f1, f2 = kern.evaluate(bits)
        pop.insert(bits, f1, f2)
    return pop


class TestSelection:
    def test_uniform_singleton(self):
        pop = cocz_pop(8, [0b00001111])
        rng = random.Random(0)
        assert all(select_parent_uniform(pop, rng) == 0b00001111
                   for _ in range(20))

    def test_uniform_frequencies(self):
        # four incomparable members with different objective values;
        # selection must ignore fitness entirely
        pop = cocz_pop(8, [0b00001111, 0b00011111, 0b00111111, 0b01111111])
        assert len(pop) == 4
        rng = random.Random(21)
        counts = {bits: 0 for bits, _, _ in pop.members()}
        trials = 100_000
        for _ in range(trials):
            counts[select_parent_uniform(pop, rng)] += 1
        for c in counts.values():
            assert abs(c / trials - 0.25) < 0.02

    def test_empty_population_rejected(self):
        kern = BenchmarkSpec(Kind.COCZ, 8).kernels()
        pop = Population(kern.slot_count, kern.slot_from_pair,
                         kern.is_front_pair)
        with pytest.raises(ValueError):
            select_parent_uniform(pop, random.Random(0))
        with pytest.raises(ValueError):
            select_parent_slot(pop, random.Random(0))

    def test_slot_full_occupancy_never_idles(self):
        # all five g2 slots filled with Pareto-optimal members at n=8
        members = [0b00001111 | (((1 << j) - 1) << 4) for j in range(5)]
        pop = cocz_pop(8, members)
        assert len(pop) == 5
        rng = random.Random(5)
        counts = {}
        trials = 50_000
        for _ in range(trials):
            got = select_parent_slot(pop, rng)
            assert got is not None
            counts[got] = counts.get(got, 0) + 1
        for c in counts.values():
            assert abs(c / trials - 0.2) < 0.02

    def test_slot_idle_probability_single_member(self):
        pop = cocz_pop(8, [0b00001111])
        rng = random.Random(9)
        trials = 20_000
        idles = sum(select_parent_slot(pop, rng) is None for _ in range(trials))
        assert abs(idles / trials - 4 / 5) < 0.02

    def test_slot_conditional_matches_uniform(self):
        # occupied slots biject onto members, so conditioned on selecting
        # anyone the draw is uniform over members
        pop = cocz_pop(8, [0b00001111, 0b00111111, 0b11111111])
        rng = random.Random(31)
        counts = {bits: 0 for bits, _, _ in pop.members()}
        selected = 0
        for _ in range(60_000):
            got = select_parent_slot(pop, rng)
            if got is not None:
                counts[got] += 1
                selected += 1
        for c in counts.values():
            assert abs(c / selected - 1 / 3) < 0.02


class TestStep:
    def setup_state(self, alg, scripted):
        # the scripted source also drives initialization: first draw is
        # the initial individual's bits
        from semolab.engine import RunState
        return RunState(BenchmarkSpec(Kind.COCZ, 8), alg, scripted)

    def test_idle_advances_only_t(self):
        # init individual 0b00001011 sits in slot g2=0; draw empty slot 4
        alg = AlgorithmSpec.gsemo(modified=True)
        state = self.setup_state(alg, ScriptedRng(bits=[0b00001011, 4]))
        before = list(state.pop.members())
        step(state)
        assert state.t == 1
        assert state.evaluations == 1
        assert list(state.pop.members()) == before

    def test_dominated_offspring_rejected_but_evaluated(self):
        # semo: select the only member, flip a first-half one -> dominated
        alg = AlgorithmSpec.semo()
        rng = ScriptedRng(bits=[0b00001011, 0, 0])
        state = self.setup_state(alg, rng)
        step(state)
        assert state.t == 1
        assert state.evaluations == 2
        assert state.pop.xs == [0b00001011]

    def test_equal_value_offspring_replaces_member(self):
        # standard mutation flipping one first-half zero and one first-half
        # one keeps the objective value but changes the bits
        alg = AlgorithmSpec.gsemo()
        rng = ScriptedRng(bits=[0b00001011, 0, 2, 0], uniforms=[0.8])
        state = self.setup_state(alg, rng)
        cdf = _flip_count_cdf(8)
        assert cdf[1] < 0.8 <= cdf[2]  # scripted uniform selects two flips
        step(state)
        assert state.evaluations == 2
        assert state.pop.xs == [0b00001011 ^ 0b101]
        assert len(state.pop) == 1

    def test_incomparable_offspring_joins(self):
        # flip a second-half zero: g2 rises, objective becomes incomparable
        alg = AlgorithmSpec.semo()
        rng = ScriptedRng(bits=[0b00001011, 0, 4])
        state = self.setup_state(alg, rng)
        step(state)
        assert len(state.pop) == 2
        assert state.evaluations == 2


class TestMeasure:
    def test_singleton(self):
        spec = BenchmarkSpec(Kind.COCZ, 8)
        state = init_state(spec, AlgorithmSpec.gsemo(), seed=0)
        kern = spec.kernels()
        state.pop = Population(kern.slot_count, kern.slot_from_pair,
                               kern.is_front_pair)
        bits = 0b01101011  # g1 = 3, g2 = 2
        state.pop.insert(bits, *kern.evaluate(bits))
        rec = measure(state)
        assert rec.pop_size == 1
        assert rec.max_g1 == 3 and rec.z_count == 1
        assert rec.d_pf == 2  # min(g2, n/2 - g2)
        assert rec.covered == 0 and rec.front_covered == 0.0

    def test_two_front_members(self):
        # population {1^4 0^4, 1^8} at n=8: both Pareto-optimal, d_pf = 0,
        # two of the five front values covered
        spec = BenchmarkSpec(Kind.COCZ, 8)
        state = init_state(spec, AlgorithmSpec.gsemo(), seed=0)
        kern = spec.kernels()
        state.pop = Population(kern.slot_count, kern.slot_from_pair,
                               kern.is_front_pair)
        for bits in (0b00001111, 0b11111111):
            state.pop.insert(bits, *kern.evaluate(bits))
        rec = measure(state)
        assert rec.pop_size == 2
        assert rec.max_g1 == 4
        assert rec.z_count == 2
        assert rec.d_pf == 0
        assert rec.covered == 2
        assert rec.front_covered == pytest.approx(2 / 5)

    def test_full_front(self):
        members = [0b00001111 | (((1 << j) - 1) << 4) for j in range(5)]
        spec = BenchmarkSpec(Kind.COCZ, 8)
        state = init_state(spec, AlgorithmSpec.gsemo(), seed=0)
        kern = spec.kernels()
        state.pop = Population(kern.slot_count, kern.slot_from_pair,
                               kern.is_front_pair)
        for bits in members:
            state.pop.insert(bits, *kern.evaluate(bits))
        rec = measure(state)
        assert rec.d_pf == 0
        assert rec.front_covered == 1.0
        assert sorted(state.pop.slots) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("kind,n,k,interior", [
        (Kind.COCZ, 12, None, False), (Kind.COCZ, 20, None, False),
        (Kind.OMM, 11, None, False), (Kind.OJZJ, 12, 3, False),
        (Kind.OJZJ, 14, 2, True)])
    def test_matches_per_member_recomputation(self, kind, n, k, interior):
        spec = BenchmarkSpec(kind, n, k)
        span = spec.slot_span
        half = n // 2
        for alg in (AlgorithmSpec.semo(), AlgorithmSpec.gsemo(modified=True)):
            for seed in range(4):
                state = init_state(spec, replace(alg, interior_init=interior),
                                   seed)
                for _ in range(400):
                    pop = state.pop
                    rec = measure(state)
                    assert rec.pop_size == len(pop)
                    assert rec.d_pf == min(min(s, span - s)
                                           for s in pop.slots)
                    if kind is Kind.COCZ:
                        g1s = [(f1 + f2 - half) >> 1
                               for f1, f2 in zip(pop.f1s, pop.f2s)]
                        assert g1s == [(x & ((1 << half) - 1)).bit_count()
                                       for x in pop.xs]
                        assert rec.max_g1 == max(g1s)
                        assert rec.z_count == g1s.count(max(g1s))
                    else:
                        assert rec.max_g1 is None and rec.z_count is None
                    assert rec.covered == pop.front_count
                    step(state)

    def test_non_cocz_has_no_g1_fields(self):
        state = init_state(BenchmarkSpec(Kind.OMM, 8), AlgorithmSpec.gsemo(),
                           seed=1)
        rec = measure(state)
        assert rec.max_g1 is None and rec.z_count is None


class TestRunUntilCover:
    def test_deterministic(self):
        spec = BenchmarkSpec(Kind.COCZ, 16)
        alg = AlgorithmSpec.gsemo()
        a = run_until_cover(spec, alg, seed=42)
        b = run_until_cover(spec, alg, seed=42)
        assert a == b
        assert repr(a) == repr(b)

    def test_runtime_equals_iterations_plus_one_for_original(self):
        for kind, n, k in [(Kind.COCZ, 10, None), (Kind.OMM, 9, None),
                           (Kind.OJZJ, 10, 2)]:
            spec = BenchmarkSpec(kind, n, k)
            for seed in range(5):
                r = run_until_cover(spec, AlgorithmSpec.gsemo(), seed)
                assert not r.censored
                assert r.runtime_evals == r.runtime_iters + 1

    def test_modified_evaluations_bounded_by_iterations(self):
        spec = BenchmarkSpec(Kind.COCZ, 12)
        r = run_until_cover(spec, AlgorithmSpec.gsemo(modified=True), seed=3)
        assert r.runtime_evals <= r.runtime_iters + 1

    def test_omm_n2_needs_three_evaluations(self):
        spec = BenchmarkSpec(Kind.OMM, 2)
        for seed in range(30):
            r = run_until_cover(spec, AlgorithmSpec.semo(), seed)
            assert not r.censored
            assert r.runtime_evals >= 3

    def test_semo_ojzj_interior_never_covers(self):
        spec = BenchmarkSpec(Kind.OJZJ, 12, 2)
        alg = replace(AlgorithmSpec.semo(max_iterations=30_000),
                      interior_init=True)
        r = run_until_cover(spec, alg, seed=8)
        assert r.censored
        assert r.final_covered == spec.front_size - 2
        assert r.runtime_iters == 30_000

    def test_gsemo_ojzj_covers(self):
        spec = BenchmarkSpec(Kind.OJZJ, 12, 2)
        r = run_until_cover(spec, replace(AlgorithmSpec.gsemo(),
                                          interior_init=True), seed=8)
        assert not r.censored

    def test_interior_init_rejected_off_ojzj(self):
        with pytest.raises(ValueError):
            run_until_cover(BenchmarkSpec(Kind.COCZ, 8), replace(
                AlgorithmSpec.gsemo(), interior_init=True), seed=0)

    def test_trajectory_structure(self):
        spec = BenchmarkSpec(Kind.COCZ, 8)
        r = run_until_cover(spec, AlgorithmSpec.gsemo(), seed=5,
                            sample_at=(7,))
        records = list(r.trajectory)
        ts = [rec.t for rec in records]
        assert ts[0] == 0
        assert ts == sorted(ts)
        assert len(ts) == len(set(ts))
        assert ts[-1] == r.runtime_iters
        assert 7 in ts  # forced checkpoint
        covered_seen = {rec.covered for rec in records}
        first = records[0].covered
        # coverage increments one front value at a time and each change is
        # sampled, so every level from the initial one up is present
        assert set(range(first, spec.front_size + 1)) <= covered_seen
        assert records[-1].front_covered == 1.0

    def test_sampling_period_default(self):
        assert default_sample_period(2) == 1
        assert default_sample_period(256) == math.ceil(256 * 256 / 200)

    def test_censoring_at_cutoff(self):
        spec = BenchmarkSpec(Kind.COCZ, 32)
        r = run_until_cover(spec, AlgorithmSpec.gsemo(max_iterations=10), seed=0)
        assert r.censored and r.runtime_iters == 10

    def test_cover_time_sane_for_tiny_omm(self):
        spec = BenchmarkSpec(Kind.OMM, 6)
        runtimes = [run_until_cover(spec, AlgorithmSpec.gsemo(), seed=s).runtime_evals
                    for s in range(20)]
        assert all(r >= spec.front_size for r in runtimes)


class TestStepLoopEquivalence:
    @pytest.mark.parametrize("kind,n,k", [(Kind.COCZ, 8, None),
                                          (Kind.OMM, 9, None),
                                          (Kind.OJZJ, 10, 2)])
    def test_loop_matches_repeated_step(self, kind, n, k):
        spec = BenchmarkSpec(kind, n, k)
        cutoff = 3000
        for alg_name, variant in itertools.product(("semo", "gsemo"),
                                                   ("original", "modified")):
            if kind is Kind.OJZJ and alg_name == "semo":
                continue  # may never cover; covered separately below
            alg = AlgorithmSpec.from_names(alg_name, variant, cutoff)
            for seed in range(3):
                res = run_until_cover(spec, alg, seed, record_trajectory=False)
                state = init_state(spec, alg, seed)
                while not state.is_covering and state.t < cutoff:
                    step(state)
                assert res.runtime_iters == state.t
                assert res.runtime_evals == state.evaluations
                assert res.censored == (not state.is_covering)
                final = measure(state)
                assert final.pop_size == res.final_pop_size
                assert final.covered == res.final_covered

    @pytest.mark.parametrize("kind,n,k", [(Kind.COCZ, 8, None),
                                          (Kind.OMM, 9, None),
                                          (Kind.OJZJ, 10, 2)])
    def test_loop_trajectory_matches_step(self, monkeypatch, kind, n, k):
        # records are due at t=0, every period tick, every forced point,
        # every change of the covered count and at termination; the loop
        # measures only after an insert, so runs whose population stops
        # changing (semo started inside the ojzj gap region) check the
        # records it copies from its last measurement, and the short
        # schedule ends runs off the period grid right after inserts.
        # The loop records change points only and _sample derives the
        # records from them when the run ends, so the schedules also put
        # due points at the edges of that derivation: period 1, a forced
        # point on a period tick and one at the cutoff, and cutoffs 0 and 1
        spec = BenchmarkSpec(kind, n, k)
        schedules = ((3000, 5, (3, 11, 64)), (13, 1000, (4,)),
                     (300, 1, ()), (42, 5, (10, 42)), (0, 5, (0, 1)),
                     (1, 1000, ()))
        starts = (False, True) if kind is Kind.OJZJ else (False,)
        for (cutoff, period, forced), alg_name, variant, interior in \
                itertools.product(schedules, ("semo", "gsemo"),
                                  ("original", "modified"), starts):
            alg = replace(AlgorithmSpec.from_names(alg_name, variant, cutoff),
                          interior_init=interior)
            monkeypatch.setattr(engine, "default_sample_period",
                                lambda n: period)
            for seed in range(3):
                res = run_until_cover(spec, alg, seed, sample_at=forced)
                state = init_state(spec, alg, seed)
                expected = [measure(state)]
                while not state.is_covering and state.t < cutoff:
                    covered = state.pop.front_count
                    step(state)
                    if (state.t % period == 0 or state.t in forced
                            or state.pop.front_count != covered):
                        expected.append(measure(state))
                if expected[-1].t != state.t:
                    expected.append(measure(state))
                assert res.trajectory == tuple(expected)
                assert res.runtime_evals == state.evaluations
                final = expected[-1]
                assert (res.final_pop_size, res.final_covered,
                        res.final_front_covered) == (
                    final.pop_size, final.covered, final.front_covered)

    @pytest.mark.parametrize("kind,n,k,interior", [
        (Kind.COCZ, 10, None, False), (Kind.OMM, 9, None, False),
        (Kind.OJZJ, 10, 2, False), (Kind.OJZJ, 10, 2, True),
        (Kind.OJZJ, 8, 3, False)])
    def test_loop_population_matches_step(self, monkeypatch, kind, n, k,
                                          interior):
        # the loop settles offspring from a memo of fates that is cleared
        # on every insert; a stale entry leaves the values right but puts
        # bits in the wrong member or slot, so the members themselves are
        # compared, at cutoffs inside the run as well as at its end
        loops = []

        def capture(*args, **kwargs):
            state = init_state(*args, **kwargs)
            loops.append(state)
            return state

        monkeypatch.setattr(engine, "init_state", capture)
        spec = BenchmarkSpec(kind, n, k)
        for cutoff, alg_name, variant in itertools.product(
                (30, 300, 3000), ("semo", "gsemo"), ("original", "modified")):
            alg = replace(AlgorithmSpec.from_names(alg_name, variant, cutoff),
                          interior_init=interior)
            for seed in range(3):
                res = run_until_cover(spec, alg, seed, record_trajectory=False)
                loop = loops.pop()
                loop.pop.check_invariants()
                state = init_state(spec, alg, seed)
                while not state.is_covering and state.t < cutoff:
                    step(state)
                assert loop.t == state.t == res.runtime_iters
                for name in ("xs", "f1s", "f2s", "slots", "_by_slot"):
                    assert getattr(loop.pop, name) == getattr(state.pop, name)

    def test_loop_matches_step_censored_semo(self):
        spec = BenchmarkSpec(Kind.OJZJ, 10, 2)
        alg = replace(AlgorithmSpec.semo(max_iterations=800),
                      interior_init=True)
        for seed in range(3):
            res = run_until_cover(spec, alg, seed, record_trajectory=False)
            state = init_state(spec, alg, seed)
            while not state.is_covering and state.t < 800:
                step(state)
            assert res.runtime_evals == state.evaluations
            assert res.censored


class TestStepLoopEquivalencePythonLoop(TestStepLoopEquivalence):
    """The same oracles on the engine's Python loop, which runs where the
    compiled loop cannot be built."""

    @pytest.fixture(autouse=True)
    def python_loop(self, monkeypatch):
        monkeypatch.setattr(_loop, "library", lambda: None)


# every benchmark, both start modes on ojzj, all four algorithm variants,
# trajectories off and on; semo on ojzj and some modified runs are censored
FINGERPRINT_CASES = [(Kind.COCZ, 16, None, False), (Kind.OMM, 15, None, False),
                     (Kind.OJZJ, 12, 2, True), (Kind.OJZJ, 12, 2, False)]
# sha256 of repr() of the results below, pinned to detect any change to
# the engine's output (RNG stream, runtimes, censoring or trajectories)
FINGERPRINT = "ba471e46adca42af09842995bb3f2aebdb547977e72ec4c68b05901990bd196b"


def test_run_until_cover_fingerprint():
    results = []
    for (kind, n, k, interior), alg_name, variant, record in itertools.product(
            FINGERPRINT_CASES, ("semo", "gsemo"), ("original", "modified"),
            (False, True)):
        spec = BenchmarkSpec(kind, n, k)
        alg = replace(AlgorithmSpec.from_names(alg_name, variant, 5000),
                      interior_init=interior)
        for seed in range(3):
            results.append(run_until_cover(
                spec, alg, seed, record_trajectory=record,
                sample_at=(1, 2, 3, 50, 777)))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == FINGERPRINT


def test_run_until_cover_fingerprint_python_loop(monkeypatch):
    monkeypatch.setattr(_loop, "library", lambda: None)
    test_run_until_cover_fingerprint()


def change_points(*points):
    """Synthetic change points from (t, covered) pairs; every other field
    differs between two points, so a record taken from the wrong one shows."""
    return [engine.TrajectoryRecord(t, i + 1, i, None, 100 + i, covered,
                                    covered / 10)
            for i, (t, covered) in enumerate(points)]


def replay_schedule(changes, end, period, sample_at, max_iters):
    """Brute force: the state at each t <= end is the last change point at or
    before t, and a record is taken wherever one is due."""
    forced = {int(s) for s in sample_at if 0 < int(s) < max_iters}
    records, prev = [], None
    for t in range(end + 1):
        state = [c for c in changes if c.t <= t][-1]
        if (t in (0, end) or t % period == 0 or t in forced
                or state.covered != prev.covered):
            records.append(state._replace(t=t))
        prev = state
    return tuple(records)


def random_schedules():
    """600 random (change points, end, period, sample_at, max_iters). The
    last 300 have sample_at on a change point, on a period tick, off the
    period grid and at end, where the run has such points."""
    rng = random.Random(7)
    for j in range(600):
        max_iters = rng.randrange(0, 60)
        end = rng.randrange(0, max_iters + 1)
        ts = sorted(rng.sample(range(1, end + 1), rng.randrange(0, end + 1))
                    if end else [])
        covered = 1
        points = [(0, covered)]
        for t in ts:
            covered += rng.random() < 0.4
            points.append((t, covered))
        changes = change_points(*points)
        period = rng.randrange(1, 15)
        if j < 300:
            sample_at = tuple(rng.randrange(0, 70)
                              for _ in range(rng.randrange(0, 4)))
        else:
            places = (ts, range(period, end + 1, period),
                      [t for t in range(1, end + 1) if t % period], [end])
            sample_at = tuple(rng.choice(p) for p in places if p)
        yield changes, end, period, sample_at, max_iters


def assert_runs_well_formed(traj, changes):
    """The runs' ticks ascend and no tick falls in two runs, neighbouring
    runs differ in their fields, and a run whose first tick is a change
    point stores that change point."""
    ticks = [t for _, ts in traj.runs for t in ts]
    assert all(ts for _, ts in traj.runs)
    assert ticks == sorted(set(ticks))
    for (a, _), (b, _) in zip(traj.runs, traj.runs[1:]):
        assert a[1:] != b[1:]
    at = {c.t: c for c in changes}
    for rec, ts in traj.runs:
        if ts[0] in at:
            assert rec is at[ts[0]]


class TestSampleSchedule:
    # (change points, end, period, sample_at, max_iters)
    @pytest.mark.parametrize("points,end,period,sample_at,max_iters", [
        # forced point on a period tick, and a change that leaves covered
        (((0, 1), (3, 1), (7, 2)), 12, 5, (5, 9), 20),
        # forced point at the end of the run
        (((0, 1), (4, 2)), 10, 3, (10,), 20),
        # forced points at and beyond the cutoff, run censored there
        (((0, 1), (2, 2), (6, 2)), 20, 7, (19, 20, 25), 20),
        # cutoff 0: the single record at t=0
        (((0, 1),), 0, 5, (0, 1), 0),
        # cutoff 1, with and without an insert at t=1
        (((0, 1),), 1, 1000, (), 1),
        (((0, 1), (1, 2)), 1, 1000, (1,), 1),
        # a change of the covered count on a period tick
        (((0, 1), (5, 2), (8, 3)), 11, 5, (), 50),
        # the run ends at a change (the cover), off the period grid
        (((0, 1), (4, 1), (9, 3)), 9, 4, (2,), 100),
        # period 1 records every t
        (((0, 1), (2, 2), (3, 2)), 6, 1, (4,), 6),
    ])
    def test_matches_replay(self, points, end, period, sample_at, max_iters):
        changes = change_points(*points)
        got = engine._sample(changes, end, period, sample_at)
        assert got == replay_schedule(changes, end, period, sample_at,
                                      max_iters)
        for rec in got:  # a record at a change point is that change point
            if any(c.t == rec.t for c in changes):
                assert any(rec is c for c in changes)
        assert_runs_well_formed(got, changes)

    def test_matches_replay_random(self):
        for changes, end, period, sample_at, max_iters in random_schedules():
            got = engine._sample(changes, end, period, sample_at)
            assert got == replay_schedule(changes, end, period, sample_at,
                                          max_iters)
            assert_runs_well_formed(got, changes)

    @pytest.mark.parametrize("record", [True, False])
    def test_measure_once_per_insert(self, monkeypatch, record):
        # with trajectories on, the loop takes a change point at t=0 (after
        # the first insert) and after every later insert, and nowhere else;
        # with them off it measures the final state once. The Python loop
        # inserts through Population.insert and measures with ``measure``.
        # The kernel applies its inserts itself (Population.insert runs for
        # the initial individual only) and writes each later change point
        # itself, so ``measure`` runs once per run there, and its change
        # points, plus the one at t=0, are as many as the Python loop's
        # inserts
        counts = {"insert": 0, "measure": 0}
        changes = []
        real_insert = Population.insert
        real_measure, real_sample = engine.measure, engine._sample

        def insert(self, *args):
            counts["insert"] += 1
            return real_insert(self, *args)

        def counted_measure(*args, **kwargs):
            counts["measure"] += 1
            return real_measure(*args, **kwargs)

        def sample(points, *args):
            changes.append(len(points))
            return real_sample(points, *args)

        monkeypatch.setattr(Population, "insert", insert)
        monkeypatch.setattr(engine, "measure", counted_measure)
        monkeypatch.setattr(engine, "_sample", sample)
        for (kind, n, k, interior), alg_name, variant in itertools.product(
                FINGERPRINT_CASES, ("semo", "gsemo"), ("original", "modified")):
            alg = replace(AlgorithmSpec.from_names(alg_name, variant, 3000),
                          interior_init=interior)
            kernel = alg_name == "gsemo" and _loop.library() is not None
            for seed in range(2):
                args = (BenchmarkSpec(kind, n, k), alg, seed)
                kwargs = dict(record_trajectory=record, sample_at=(1, 50))
                inserts = python_loop_inserts(monkeypatch, *args, **kwargs)
                counts.update(insert=0, measure=0)
                changes.clear()
                run_until_cover(*args, **kwargs)
                assert inserts > 1
                assert changes == ([inserts] if record else [])
                assert counts["insert"] == (1 if kernel else inserts)
                assert counts["measure"] == (inserts if record and not kernel
                                             else 1)


def python_loop_inserts(monkeypatch, *args, **kwargs) -> int:
    """The ``Population.insert`` calls of ``run_until_cover(*args,
    **kwargs)`` on the Python loop: the initial individual and every
    offspring that changed the value set."""
    inserts = 0
    real_insert = Population.insert

    def insert(self, *a):
        nonlocal inserts
        inserts += 1
        return real_insert(self, *a)

    with monkeypatch.context() as m:
        m.setattr(_loop, "library", lambda: None)
        m.setattr(Population, "insert", insert)
        run_until_cover(*args, **kwargs)
    return inserts


def omm9_trial(trajectory, end):
    """A trial of omm n=9 (10 front values, as ``change_points`` assumes)
    that ran to t = ``end``."""
    return engine.TrialResult(
        benchmark="omm", n=9, k=None, algorithm="gsemo", variant="original",
        seed=0, runtime_evals=end + 1, runtime_iters=end, censored=False,
        final_pop_size=1, final_covered=1, final_front_covered=0.1,
        trajectory=trajectory)


def write_and_load(results, directory):
    trials = directory / "trials.csv"
    trajs = directory / "trajectories.csv"
    write_trials_csv(results, trials)
    write_trajectories_csv(results, trajs)
    return [r.trajectory for r in load_results(trials, trajs)]


def record_of(t, pop_size, d_pf, covered):
    return engine.TrajectoryRecord(t, pop_size, None, None, d_pf, covered,
                                   covered / 10)


# change points of which neighbours share their fields (t=0 and 2, t=5 and
# 6) or differ only in the covered count (t=6 and 9)
MERGING_CHANGES = [record_of(0, 1, 3, 1), record_of(2, 1, 3, 1),
                   record_of(5, 2, 3, 2), record_of(6, 2, 3, 2),
                   record_of(9, 2, 3, 3)]
# (end, period, sample_at) of the run they end, at the cutoff 20
MERGING_RUN = (12, 4, (3,))


class TestTrajectory:
    def merged(self):
        return engine._sample(MERGING_CHANGES, *MERGING_RUN)

    def test_equal_neighbours_share_a_run(self, tmp_path):
        traj = self.merged()
        records = replay_schedule(MERGING_CHANGES, *MERGING_RUN, 20)
        assert traj == records
        assert [ts for _, ts in traj.runs] == [(0, 3, 4), (5, 8), (9, 12)]
        assert [rec.t for rec, _ in traj.runs] == [0, 5, 9]
        (loaded,) = write_and_load([omm9_trial(traj, 12)], tmp_path)
        assert loaded == traj
        assert loaded.runs == traj.runs

    def test_run_with_merged_change_points_loads_back(self, tmp_path,
                                                      monkeypatch):
        # cocz n=64 runs have neighbouring change points with equal fields
        seen = []
        real_sample = engine._sample

        def sample(changes, *args):
            seen.append((changes, args))
            return real_sample(changes, *args)

        monkeypatch.setattr(engine, "_sample", sample)
        spec = BenchmarkSpec(Kind.COCZ, 64)
        alg = AlgorithmSpec.gsemo(modified=True)
        results = [run_until_cover(spec, alg, seed) for seed in range(3)]
        assert any(a[1:] == b[1:] for changes, _ in seen
                   for a, b in zip(changes, changes[1:]))
        for res, (changes, args) in zip(results, seen):
            assert res.trajectory == replay_schedule(changes, *args,
                                                     alg.cutoff(spec))
        assert write_and_load(results, tmp_path) == \
            [r.trajectory for r in results]

    def test_round_trip_random_schedules(self, tmp_path):
        for changes, end, period, sample_at, max_iters in random_schedules():
            traj = engine._sample(changes, end, period, sample_at)
            (loaded,) = write_and_load([omm9_trial(traj, end)], tmp_path)
            assert loaded == traj
            assert tuple(loaded) == tuple(traj)

    def test_tuple_equality_and_hash(self):
        traj = self.merged()
        records = tuple(traj)
        assert traj == records and records == traj
        assert not traj != records and not records != traj
        assert traj != records[:-1] and records[:-1] != traj
        assert traj != list(records)
        assert hash(traj) == hash(records)
        assert engine.Trajectory.of(records) == traj
        assert engine.Trajectory.of(records[1:]) != traj
        moved = records[:-1] + (records[-1]._replace(d_pf=4),)
        assert engine.Trajectory.of(moved) != traj
        trial = omm9_trial(traj, 12)
        assert omm9_trial(list(records), 12) == trial
        assert hash(omm9_trial(records, 12)) == hash(trial)
        assert type(omm9_trial(records, 12).trajectory) is engine.Trajectory

    def test_repr_is_the_tuples(self):
        traj = self.merged()
        assert repr(traj) == repr(tuple(traj))
        assert repr(engine.Trajectory()) == "()"
        assert not engine.Trajectory() and len(engine.Trajectory()) == 0

    def test_records_out_of_order_rejected(self):
        records = tuple(self.merged())
        with pytest.raises(ValueError, match="t order"):
            engine.Trajectory.of(records[::-1])

    def test_runs_per_insert(self, monkeypatch):
        # the trajectory is stored per change point, not per tick: at most
        # one run per insert, plus one each for t=0 and the last sample.
        # The inserts are counted on the Python loop, whose trajectory the
        # kernel's equals
        for (kind, n, k, interior), alg_name, variant in itertools.product(
                FINGERPRINT_CASES, ("semo", "gsemo"), ("original", "modified")):
            alg = replace(AlgorithmSpec.from_names(alg_name, variant, 3000),
                          interior_init=interior)
            for seed in range(2):
                args = (BenchmarkSpec(kind, n, k), alg, seed)
                kwargs = dict(sample_at=(1, 50))
                inserts = python_loop_inserts(monkeypatch, *args, **kwargs)
                traj = run_until_cover(*args, **kwargs).trajectory
                assert inserts > 1
                assert len(traj.runs) <= inserts + 2 < len(traj)


def stepped_budget(bspec, alg, seed, offspring_target):
    """``run_offspring_budget`` as repeated ``step`` calls: the checks and
    the stop are tested before every iteration."""
    state = init_state(bspec, alg, seed)
    cap = alg.max_iterations if alg.max_iterations is not None else (
        1000 * (offspring_target + 1) * state.slot_draw_count)
    slot_sel = alg.selection is Selection.SLOT_PARENT
    while state.evaluations - 1 < offspring_target:
        if slot_sel and min(state.pop.slots) >= state.slot_draw_count:
            raise RuntimeError(
                "selection deadlocked: every member sits outside the slot "
                "draw range")
        if state.t >= cap:
            raise RuntimeError(
                f"offspring budget not reached within {cap} iterations")
        step(state)
    return state


def budget_outcome(run, *args):
    """The counters, members and generator state a budget run leaves, or
    the message of the RuntimeError it raised."""
    try:
        state = run(*args)
    except RuntimeError as exc:
        return str(exc)
    pop = state.pop
    return (state.t, state.evaluations, pop.xs, pop.f1s, pop.f2s, pop.slots,
            pop._by_slot, state.rng.getstate())


class TestProcessLaws:
    def test_max_g1_monotone_and_z_reset(self):
        spec = BenchmarkSpec(Kind.COCZ, 12)
        for alg in (AlgorithmSpec.gsemo(), AlgorithmSpec.gsemo(modified=True)):
            for seed in range(3):
                state = init_state(spec, alg, seed)
                prev = measure(state)
                for _ in range(1500):
                    step(state)
                    cur = measure(state)
                    assert cur.max_g1 >= prev.max_g1
                    if cur.max_g1 > prev.max_g1:
                        assert cur.z_count == 1
                    else:
                        assert cur.z_count >= prev.z_count
                    prev = cur
                    if state.is_covering:
                        break

    def test_run_offspring_budget(self):
        spec = BenchmarkSpec(Kind.COCZ, 8)
        state = run_offspring_budget(spec, AlgorithmSpec.gsemo(), 3, 25)
        assert state.evaluations == 26
        assert state.t == 25  # uniform selection never idles
        state = run_offspring_budget(spec, AlgorithmSpec.gsemo(modified=True),
                                     3, 25)
        assert state.evaluations == 26
        assert state.t >= 25

    def test_run_offspring_budget_deadlock(self):
        # the seed-0 start at cocz n=2 has a one in the second half, so it
        # sits in slot 1, out of reach of a draw range cut to slot 0
        spec = BenchmarkSpec(Kind.COCZ, 2)
        alg = AlgorithmSpec.gsemo(modified=True)
        assert init_state(spec, alg, 0).pop.slots == [1]
        with pytest.raises(RuntimeError, match="deadlocked"):
            run_offspring_budget(spec, replace(alg, slot_count_offset=-1),
                                 0, 10)

    def test_run_offspring_budget_cap(self):
        spec = BenchmarkSpec(Kind.COCZ, 8)
        with pytest.raises(RuntimeError, match="within 10 iterations"):
            run_offspring_budget(spec, AlgorithmSpec.gsemo(max_iterations=10),
                                 3, 25)

    def test_run_offspring_budget_rejects_negative_target(self):
        with pytest.raises(ValueError, match="offspring_target"):
            run_offspring_budget(BenchmarkSpec(Kind.COCZ, 8),
                                 AlgorithmSpec.gsemo(), 3, -1)

    @pytest.mark.parametrize("kind,n,k,interior", [
        (Kind.COCZ, 8, None, False), (Kind.OMM, 9, None, False),
        (Kind.OJZJ, 10, 2, False), (Kind.OJZJ, 10, 2, True)])
    def test_run_offspring_budget_matches_step(self, kind, n, k, interior):
        # the budget run is the engine's loop with an offspring stop; it
        # must leave the state that repeated step calls leave, past cover
        # too, and under a broken slot range raise where they raise
        spec = BenchmarkSpec(kind, n, k)
        for alg_name, variant, seed, target, offset in itertools.product(
                ("semo", "gsemo"), ("original", "modified"), range(3),
                (1, 30, 300), (0, -1)):
            alg = replace(AlgorithmSpec.from_names(alg_name, variant),
                          interior_init=interior, slot_count_offset=offset)
            args = (spec, alg, seed, target)
            assert (budget_outcome(run_offspring_budget, *args)
                    == budget_outcome(stepped_budget, *args))

    def test_run_offspring_budget_cap_matches_step(self):
        # the cap falls before, at and after the target, with and without
        # idle draws
        for kind, alg_name, variant, seed, target, cap in itertools.product(
                (Kind.COCZ, Kind.OMM), ("semo", "gsemo"),
                ("original", "modified"), range(2), (1, 30), (0, 1, 30, 45)):
            args = (BenchmarkSpec(kind, 8), AlgorithmSpec.from_names(
                alg_name, variant, cap), seed, target)
            assert (budget_outcome(run_offspring_budget, *args)
                    == budget_outcome(stepped_budget, *args))


class TestAlgorithmSpec:
    def test_names(self):
        assert AlgorithmSpec.semo().algorithm_name == "semo"
        assert AlgorithmSpec.gsemo().variant_name == "original"
        assert AlgorithmSpec.gsemo(modified=True).variant_name == "modified"
        alg = AlgorithmSpec.from_names("semo", "modified", 10)
        assert alg.mutation is Mutation.ONE_BIT
        assert alg.selection is Selection.SLOT_PARENT
        assert alg.max_iterations == 10

    def test_unknown_names(self):
        with pytest.raises(ValueError):
            AlgorithmSpec.from_names("nsga2", "original")
        with pytest.raises(ValueError):
            AlgorithmSpec.from_names("semo", "fancy")
