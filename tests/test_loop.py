"""The compiled run loop (``_loop.c``) against the engine's Python loop.

Both must give the same results from the same seed and leave the
generator in the same state, so every comparison here covers the results,
the final members and ``rng.getstate()``. The Python path is chosen by
replacing the loader, as a machine without a compiler would.
"""

import ctypes
import itertools
import os
import random
import shutil
import subprocess
import sys

import pytest

from semolab import _loop, engine
from semolab.benchmarks import BenchmarkSpec, Kind
from semolab.core import Population
from semolab.engine import AlgorithmSpec, _flip_count_cdf, run_until_cover
from semolab.experiments import ExperimentConfig, run_grid

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def compiler():
    """The first compiler command of ``_loop.compilers()`` that exists."""
    for cc in _loop.compilers():
        if shutil.which(cc[0]):
            return cc
    return None


needs_compiler = pytest.mark.skipif(compiler() is None,
                                    reason="no C compiler on this machine")


@pytest.fixture
def kernel():
    lib = _loop.library()
    assert lib is not None, "a compiler exists but the kernel did not load"
    return lib


def outcome(monkeypatch, compiled, spec, alg, seed, rig=None, **kwargs):
    """A run's result, final members and generator state on one path.

    ``rig(state)``, when given, edits the fresh state before the loop."""
    states = []
    real = engine.init_state

    def capture(*args, **kw):
        state = real(*args, **kw)
        if rig is not None:
            rig(state)
        states.append(state)
        return state

    with monkeypatch.context() as m:
        m.setattr(engine, "init_state", capture)
        if not compiled:
            m.setattr(_loop, "library", lambda: None)
        result = run_until_cover(spec, alg, seed, **kwargs)
    (state,) = states
    pop = state.pop
    pop.check_invariants()
    return (result, state.t, pop.xs, pop.f1s, pop.f2s, pop.slots,
            pop._by_slot, pop.front_count, state.rng.getstate())


def specs(n):
    """Every kind at size n: cocz for even n, ojzj with the gap 2 and, from
    n = 8, n // 2, whose interior start is the single ones count n/2."""
    out = [(BenchmarkSpec(Kind.OMM, n), False)]
    if n % 2 == 0:
        out.append((BenchmarkSpec(Kind.COCZ, n), False))
    for k in sorted({2, n // 2 if n >= 8 else 2}):
        spec = BenchmarkSpec(Kind.OJZJ, n, k)
        out.append((spec, False))
        if 2 * k <= n:
            out.append((spec, True))
    return out


# (variant, slot_count_offset): the offset only matters for slot draws
SELECTIONS = (("original", 0), ("modified", -1), ("modified", 0),
              ("modified", 1))
CUTOFFS = (0, 1, 37, 3000)


@needs_compiler
@pytest.mark.parametrize("n", [2, 3, 8, 31, 32, 33, 63, 64, 65, 127, 128,
                               129, 130, 256])
def test_kernel_matches_python_loop(monkeypatch, kernel, n):
    # word boundaries (31..33, 63..65, 127..129), interior starts, slot
    # draws past the last slot and short of it, cutoffs inside a run and
    # at its first two iterations, trajectories on and off. 130 and 256
    # run cocz on the generic width, with the half inside a word (65) and
    # on a word boundary (128)
    for (spec, interior), (variant, offset), cutoff, record, seed in \
            itertools.product(specs(n), SELECTIONS, CUTOFFS, (False, True),
                              range(2)):
        alg = AlgorithmSpec.from_names("gsemo", variant, cutoff)
        args = (spec, alg, seed)
        kwargs = dict(interior_init=interior, record_trajectory=record,
                      slot_count_offset=offset)
        assert outcome(monkeypatch, True, *args, **kwargs) == \
            outcome(monkeypatch, False, *args, **kwargs), (
                spec, alg, seed, kwargs)


@needs_compiler
def test_cutoff_beyond_the_int64_range(monkeypatch, kernel):
    # the kernel's counter is 64 bits wide; a larger cutoff must not wrap
    spec = BenchmarkSpec(Kind.OMM, 6)
    for cutoff in (2 ** 63, 2 ** 64 + 5):
        alg = AlgorithmSpec.gsemo(max_iterations=cutoff)
        compiled = outcome(monkeypatch, True, spec, alg, 1)
        assert compiled == outcome(monkeypatch, False, spec, alg, 1)
        assert not compiled[0].censored


def at_index(mti):
    """A rig that moves the generator to position ``mti`` of its block."""
    def rig(state):
        version, internal, gauss = state.rng.getstate()
        state.rng.setstate((version, internal[:624] + (mti,), gauss))
    return rig


@needs_compiler
@pytest.mark.parametrize("mti", [0, 1, 300, 622, 623, 624])
def test_run_starts_anywhere_in_the_block(monkeypatch, kernel, mti):
    # the kernel tempers its block from the state it is given: at 0 it
    # reads the first word, at 624 it twists first; under original
    # selection a single member draws no parent, so at 623 the two words of
    # the first random() straddle a twist, and under slot selection the
    # slot draw comes first and 622 does the same
    for (spec, interior), variant, cutoff in itertools.product(
            specs(33) + specs(64), ("original", "modified"), (1, 5, 3000)):
        alg = AlgorithmSpec.from_names("gsemo", variant, cutoff)
        args = (spec, alg, 3, at_index(mti))
        compiled = outcome(monkeypatch, True, *args, interior_init=interior)
        assert compiled == outcome(monkeypatch, False, *args,
                                   interior_init=interior), (spec, alg)


@needs_compiler
def test_runs_resume_after_inserts_inside_a_block(monkeypatch, kernel):
    # with trajectories on and a buffer of one change point, every insert
    # hands control back to Python part way through a block of 624 words;
    # with them off the kernel applies the insert and goes on. Cutoffs end
    # runs between two inserts, between an insert and a twist, and at the
    # insert that covers the front
    monkeypatch.setattr(_loop, "POINTS", 1)
    covered = set()
    for n, cutoff, variant, mti, record in itertools.product(
            (4, 8), range(1, 60), ("original", "modified"), (500, 610),
            (True, False)):
        spec = BenchmarkSpec(Kind.OMM, n)
        alg = AlgorithmSpec.from_names("gsemo", variant, cutoff)
        args = (spec, alg, 2, at_index(mti))
        compiled = outcome(monkeypatch, True, *args, record_trajectory=record)
        assert compiled == outcome(monkeypatch, False, *args,
                                   record_trajectory=record), (
            n, cutoff, variant, mti, record)
        covered.add(not compiled[0].censored)
    assert covered == {False, True}


class CountingRandom(random.Random):
    """A generator that overrides ``random()`` and calls the base class, as
    a tracing generator does: same stream, one more attribute."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def as_subclass(made):
    """A rig that moves the run to a ``CountingRandom`` in the same state
    and appends it to ``made``."""
    def rig(state):
        rng = CountingRandom()
        rng.setstate(state.rng.getstate())
        state.rng = rng
        made.append(rng)
    return rig


@needs_compiler
def test_subclass_of_random_matches_python_loop(monkeypatch, kernel):
    # the kernel advances the subclass instance's own state words, which
    # sit where they sit in a random.Random; the Python loop calls the
    # override, the kernel does not, and both end in the same state
    made = []
    for (spec, interior), variant, record in itertools.product(
            specs(8) + specs(33), ("original", "modified"), (False, True)):
        alg = AlgorithmSpec.from_names("gsemo", variant, 3000)
        args = (spec, alg, 6, as_subclass(made))
        kwargs = dict(interior_init=interior, record_trajectory=record)
        assert outcome(monkeypatch, True, *args, **kwargs) == \
            outcome(monkeypatch, False, *args, **kwargs), (spec, alg, kwargs)
        compiled, python = made[-2:]
        assert compiled.calls == 0 < python.calls, (spec, alg, kwargs)


@needs_compiler
def test_run_rejects_a_generator_that_is_not_a_random(kernel):
    # the kernel writes into the generator object at CPython's
    # RandomObject offsets, so anything else is refused before the call
    class Foreign:
        def __init__(self, rng):
            self.getrandbits, self.random = rng.getrandbits, rng.random

    spec = BenchmarkSpec(Kind.OMM, 8)
    state = engine.init_state(spec, AlgorithmSpec.gsemo(), 1)
    state.rng = Foreign(state.rng)
    with pytest.raises(TypeError, match="random.Random"):
        _loop.run(kernel, state, 100, None)
    assert state.t == 0 and len(state.pop) == 1


@needs_compiler
def test_wrong_generator_layout_takes_the_python_loop(monkeypatch, kernel):
    # negative control of the layout check: at a wrong offset the probe
    # reads back something other than its getstate(), so the loader warns
    # and returns None, and a run takes the Python loop with the same result
    spec = BenchmarkSpec(Kind.COCZ, 16)
    alg = AlgorithmSpec.from_names("gsemo", "modified")
    expected = run_until_cover(spec, alg, 7, record_trajectory=True)
    python_runs = []
    real = engine._python_loop
    monkeypatch.setattr(engine, "_python_loop",
                        lambda *args: python_runs.append(1) or real(*args))
    monkeypatch.setattr(_loop, "OFFSET", _loop.OFFSET - 4)
    _loop.library.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="not at offset"):
            assert _loop.library() is None
        assert run_until_cover(spec, alg, 7,
                               record_trajectory=True) == expected
    finally:
        _loop.library.cache_clear()
    assert python_runs == [1]


def count_calls(monkeypatch, kernel):
    """Count the ``loop_run`` calls in the returned list's only item,
    and let ``Population.insert`` run for the initial individual only."""
    calls = [0]
    real_run = kernel.loop_run
    real_insert = Population.insert

    def counted_run(ref):
        calls[0] += 1
        return real_run(ref)

    def first_insert_only(pop, *args):
        if len(pop):
            raise AssertionError("Population.insert after the initial "
                                 "individual")
        return real_insert(pop, *args)

    monkeypatch.setattr(kernel, "loop_run", counted_run)
    monkeypatch.setattr(Population, "insert", first_insert_only)
    return calls


def assert_one_call_per_run(monkeypatch, kernel, record):
    calls = count_calls(monkeypatch, kernel)
    for spec, variant in itertools.product(
            (BenchmarkSpec(Kind.COCZ, 32), BenchmarkSpec(Kind.OMM, 33),
             BenchmarkSpec(Kind.OJZJ, 12, 2)), ("original", "modified")):
        calls[0] = 0
        result = run_until_cover(spec, AlgorithmSpec.from_names(
            "gsemo", variant), 4, record_trajectory=record)
        assert not result.censored
        assert calls[0] == 1, (spec, variant)


@needs_compiler
def test_run_without_trajectories_is_one_call(monkeypatch, kernel):
    # the kernel applies every insert itself: one loop_run per run, and
    # Population.insert only for the initial individual
    assert_one_call_per_run(monkeypatch, kernel, False)


@needs_compiler
def test_run_with_trajectories_is_one_call(monkeypatch, kernel):
    # the kernel also writes the change points itself, into a buffer that
    # none of these runs fills
    assert_one_call_per_run(monkeypatch, kernel, True)


@needs_compiler
@pytest.mark.parametrize("points", [1, 3])
def test_full_buffers_are_drained(monkeypatch, kernel, points):
    # a buffer of 1 or 3 change points fills inside most runs: the kernel
    # returns 2, Python drains it and calls again, and the results,
    # trajectories included, are the Python loop's. A run that writes p
    # points makes p // points + 1 calls, one fewer when it covers the
    # front at a point that fills the buffer, which then returns 1
    monkeypatch.setattr(_loop, "POINTS", points)
    filled_at_cover = 0
    lengths = []
    real_sample = engine._sample

    def sample(changes, *args):
        lengths.append(len(changes))
        return real_sample(changes, *args)

    for (spec, interior), (variant, offset), cutoff, seed in \
            itertools.product(specs(8) + specs(12), SELECTIONS, (37, 3000),
                              range(2)):
        alg = AlgorithmSpec.from_names("gsemo", variant, cutoff)
        args = (spec, alg, seed)
        kwargs = dict(interior_init=interior, slot_count_offset=offset)
        with monkeypatch.context() as m:
            calls = count_calls(m, kernel)
            m.setattr(engine, "_sample", sample)
            compiled = outcome(m, True, *args, **kwargs)
        assert compiled == outcome(monkeypatch, False, *args, **kwargs), (
            spec, alg, seed, kwargs)
        # the change points but the one at t=0
        written = lengths.pop() - 1
        full = written > 0 and written % points == 0
        covered = not compiled[0].censored
        filled_at_cover += covered and full
        assert calls[0] == written // points + 1 - (covered and full), (
            spec, alg, seed, kwargs)
    assert filled_at_cover


@needs_compiler
def test_struct_layout_matches(kernel, tmp_path):
    # a field order or type that differs between struct loop and Loop
    # would corrupt memory without an error. The size alone misses a field
    # whose type differs within the padding before the next one, so a
    # probe compiled with the source prints the offset and size of every
    # field of Loop by name
    assert kernel.loop_sizeof() == ctypes.sizeof(_loop.Loop)
    names = [name for name, _ in _loop.Loop._fields_]
    # the generator is reached through two pointers into its object
    assert names[:2] == ["mt", "index"]
    assert _loop.Loop.index.size == ctypes.sizeof(ctypes.c_void_p)
    probe = tmp_path / "probe.c"
    probe.write_text(
        "#include <stddef.h>\n#include <stdio.h>\n"
        f'#include "{_loop.SOURCE}"\n'
        "#define FIELD(f) printf(\"%zu %zu\\n\", offsetof(struct loop, f), "
        "sizeof(((struct loop *)0)->f))\n"
        "int main(void)\n{\n"
        + "".join(f"    FIELD({name});\n" for name in names)
        + "    return 0;\n}\n")
    exe = tmp_path / "probe"
    subprocess.run([*compiler(), "-o", str(exe), str(probe)], check=True)
    out = subprocess.run([str(exe)], check=True, stdout=subprocess.PIPE,
                         text=True).stdout.split()
    got = list(zip(names, map(int, out[::2]), map(int, out[1::2])))
    assert got == [(name, getattr(_loop.Loop, name).offset,
                    getattr(_loop.Loop, name).size) for name in names]


def kernel_class(kernel, spec, ones, g1=0):
    """(f1, f2, slot, front flag) that the kernel gives a string of spec
    with ``ones`` ones, ``g1`` of them in the first half."""
    n = spec.n
    _, classes = _loop.tables(spec)
    r = _loop.Loop(n=n, half=n // 2, classes=classes)
    out = (ctypes.c_int32 * 4)()
    kernel.loop_class(ctypes.byref(r), ones, g1, out)
    return tuple(out)


@needs_compiler
def test_value_classes_match_the_kernels(kernel):
    # the kernel's second definition of the update's slot and front flag
    # against the Kernels callables: every ones count of omm and ojzj, and
    # every (g1, g2) of cocz. The kernel starts an offspring's counts from
    # its parent's class, so the class must give them back: the slot is
    # the ones count on omm and ojzj, and on cocz f1 is the ones count and
    # f1 - slot is g1
    for n in range(2, 131):
        specs = [BenchmarkSpec(Kind.OMM, n)]
        specs += [BenchmarkSpec(Kind.OJZJ, n, k) for k in (2, 3) if k <= n]
        for spec in specs:
            kern = spec.kernels()
            for ones in range(n + 1):
                f1, f2 = kern.evaluate((1 << ones) - 1)
                got = kernel_class(kernel, spec, ones)
                assert got == (f1, f2, kern.slot_from_pair(f1, f2),
                               kern.is_front_pair(f1, f2)), (spec, ones)
                assert got[2] == ones, (spec, ones)
    for n in range(2, 17, 2):
        spec = BenchmarkSpec(Kind.COCZ, n)
        kern = spec.kernels()
        half = n // 2
        for g1, g2 in itertools.product(range(half + 1), repeat=2):
            f1, f2 = kern.evaluate((1 << g1) - 1 | ((1 << g2) - 1) << half)
            got = kernel_class(kernel, spec, g1 + g2, g1)
            assert got == (f1, f2, kern.slot_from_pair(f1, f2),
                           kern.is_front_pair(f1, f2)), (spec, g1, g2)
            assert (got[0], got[0] - got[2]) == (g1 + g2, g1), (spec, g1, g2)


@needs_compiler
def test_tables_do_not_leak_between_kinds(monkeypatch, kernel):
    # the read-only tables are cached per benchmark instance; omm, ojzj and
    # cocz of one n share the flip-count distribution but not the values,
    # and must not be handed each other's
    _loop.tables.cache_clear()
    for n in (16, 64, 128):
        for spec in (BenchmarkSpec(Kind.OMM, n),
                     BenchmarkSpec(Kind.OJZJ, n, 2),
                     BenchmarkSpec(Kind.COCZ, n),
                     BenchmarkSpec(Kind.OJZJ, n, 3)):
            alg = AlgorithmSpec.from_names("gsemo", "original", 20 * n * n)
            for seed in range(2):
                assert outcome(monkeypatch, True, spec, alg, seed) == \
                    outcome(monkeypatch, False, spec, alg, seed), (spec, seed)
    assert _loop.tables.cache_info().currsize == 12


def untemper(y: int) -> int:
    """The Mersenne Twister state word whose output is y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xefc60000
    t = y
    for _ in range(5):
        t = y ^ ((t << 7) & 0x9d2c5680)
    t &= 0xffffffff
    y = t
    for _ in range(3):
        t = y ^ (t >> 11)
    return t


def next_outputs(rng, words):
    """Make ``words`` the next 32-bit outputs of ``rng``."""
    version, internal, gauss = rng.getstate()
    start = 624 - len(words)
    mt = internal[:start] + tuple(map(untemper, words))
    rng.setstate((version, mt + (start,), gauss))


def uniform_words(x: int) -> list[int]:
    """The two outputs from which ``random()`` makes x / 2^53."""
    assert 0 <= x < 2 ** 53
    return [(x >> 26) << 5, (x & (2 ** 26 - 1)) << 6]


def test_thresholds_are_the_floors_of_the_scaled_distribution():
    # u <= cdf[k] iff x <= T[k] for u = x / 2^53 needs T[k] to be the
    # floor of cdf[k] * 2^53, which is not always an integer; the last
    # threshold must stop every scan. Python compares ints with floats
    # exactly
    for n in range(2, 301):
        cdf = _flip_count_cdf(n)
        thresholds, _ = _loop.tables(BenchmarkSpec(Kind.OMM, n))
        assert len(thresholds) == n + 1
        for k, (t, c) in enumerate(zip(thresholds, cdf)):
            assert t <= c * 2 ** 53 < t + 1, (n, k)
        assert thresholds[n] == 2 ** 53


@needs_compiler
@pytest.mark.parametrize("n", [3, 8, 12, 20, 32, 33, 64, 127])
def test_flip_count_ties(monkeypatch, kernel, n):
    # the flip count is the least k with u <= cdf[k]; u is placed on the
    # kernel's thresholds T[k] / 2^53 and one step above, for k = 0, 1, 2.
    # Where cdf[k] * 2^53 is an integer, T[k] / 2^53
    # is cdf[k] itself, where a strict comparison would draw one more
    # position; at n = 12 and 20 cdf[0] * 2^53 is a half-integer, which
    # lies between the two draws
    thresholds, _ = _loop.tables(BenchmarkSpec(Kind.OMM, n))
    spec = BenchmarkSpec(Kind.OMM, n)
    for j, step, variant in itertools.product(range(3), (0, 1),
                                              ("original", "modified")):
        alg = AlgorithmSpec.from_names("gsemo", variant, 3)

        def rig(state):
            # a single member: no parent draw under uniform selection, and
            # a slot draw that hits it under slot selection
            words = uniform_words(thresholds[j] + step)
            if variant == "modified":
                bits = (state.slot_draw_count - 1).bit_length()
                words.insert(0, state.pop.slots[0] << (32 - bits))
            next_outputs(state.rng, words)

        python = outcome(monkeypatch, False, spec, alg, 5, rig)
        assert python == outcome(monkeypatch, True, spec, alg, 5, rig), (
            j, step)


def test_rigged_draws_reach_the_loop():
    # the words placed by next_outputs come out in order
    import random
    rng = random.Random(1)
    words = [1, 2 ** 32 - 1, 12345, 0]
    next_outputs(rng, words)
    assert [rng.getrandbits(32) for _ in words] == words
    next_outputs(rng, uniform_words(3 * 2 ** 51))
    assert rng.random() == 0.75


@needs_compiler
def test_source_compiles_without_warnings(tmp_path):
    cc = compiler()
    proc = subprocess.run(
        [*cc, *_loop.CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "loop.so"), _loop.SOURCE],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0, proc.stdout


@pytest.fixture
def cold_cache(monkeypatch, tmp_path):
    """An empty library cache for this test; the loader forgets what it
    loaded before and after."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(_loop, "CACHE_DIR", str(cache))
    _loop.library.cache_clear()
    yield cache
    _loop.library.cache_clear()


@needs_compiler
def test_pool_workers_build_a_cold_cache(cold_cache):
    # two workers start on an empty cache and both build the library;
    # each writes under a temporary name and renames it into place
    config = ExperimentConfig("cocz", "gsemo", "modified", (8, 12), 4, 3)
    parallel = run_grid(config, jobs=2)
    assert [p.name for p in cold_cache.iterdir()] == [
        os.path.basename(_loop.library_path())]
    assert parallel == run_grid(config, jobs=1)


@needs_compiler
def test_a_build_removes_stale_libraries(cold_cache):
    cold_cache.mkdir()
    stale = cold_cache / "_loop-0000.so"
    stale.write_bytes(b"an older build")
    assert _loop.library() is not None
    assert [p.name for p in cold_cache.iterdir()] == [
        os.path.basename(_loop.library_path())]


def test_failed_build_warns(monkeypatch, cold_cache):
    # without a kernel GSEMO takes the Python loop, but never silently
    monkeypatch.setattr(_loop, "compilers", lambda: [["no-such-compiler"]])
    with pytest.warns(RuntimeWarning, match="Python loop"):
        assert _loop.library() is None


def test_cache_key_covers_the_flags(monkeypatch):
    path = _loop.library_path()
    monkeypatch.setattr(_loop, "CFLAGS", (*_loop.CFLAGS, "-g"))
    assert _loop.library_path() != path
    assert os.path.dirname(_loop.library_path()) == os.path.dirname(path)


def fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, stdout=subprocess.PIPE, text=True)
    return proc.stdout


def test_import_loads_no_ctypes_and_builds_nothing():
    loaded = fresh("import sys, semolab, semolab.cli\n"
                   "print(' '.join(sys.modules))").split()
    assert "semolab.cli" in loaded
    for name in ("ctypes", "subprocess", "semolab._loop"):
        assert name not in loaded


@needs_compiler
def test_second_process_reuses_the_cached_library(tmp_path):
    # the first process builds into an empty cache; the second loads that
    # file and never imports subprocess, so it started no compiler
    code = """
import sys
from semolab import _loop, AlgorithmSpec, BenchmarkSpec, Kind, run_until_cover
_loop.CACHE_DIR = sys.argv[1]
result = run_until_cover(BenchmarkSpec(Kind.COCZ, 8), AlgorithmSpec.gsemo(), 0)
assert _loop.library() is not None
print(_loop.library_path(), "subprocess" in sys.modules)
"""
    cache = str(tmp_path / "cache")
    first = fresh(code, cache).split()
    mtime = os.stat(first[0]).st_mtime_ns
    second = fresh(code, cache).split()
    assert first[1] == "True"
    assert second == [first[0], "False"]
    assert os.stat(first[0]).st_mtime_ns == mtime
    assert os.listdir(cache) == [os.path.basename(first[0])]
