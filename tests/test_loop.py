"""The compiled run loop (``_loop.c``) against the engine's Python loop.

Both must give the same results from the same seed and leave the
generator in the same state, so every comparison here covers the results,
the final members and ``rng.getstate()``. The Python path is chosen by
replacing the loader, as a machine without a compiler would.
"""

import itertools
import os
import shutil
import subprocess
import sys

import pytest

from semolab import _loop, engine
from semolab.benchmarks import BenchmarkSpec, Kind
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
                               129])
def test_kernel_matches_python_loop(monkeypatch, kernel, n):
    # word boundaries (31..33, 63..65, 127..129), interior starts, slot
    # draws past the last slot and short of it, cutoffs inside a run and
    # at its first two iterations, trajectories on and off
    for (spec, interior), (variant, offset), cutoff, record, seed in \
            itertools.product(specs(n), SELECTIONS, CUTOFFS, (False, True),
                              range(2)):
        alg = AlgorithmSpec.from_names("gsemo", variant, cutoff)
        args = (spec, alg, seed)
        kwargs = dict(interior_init=interior, record_trajectory=record,
                      slot_count_offset=offset)
        assert outcome(monkeypatch, True, *args, **kwargs) == \
            outcome(monkeypatch, False, *args, **kwargs), (spec, alg, seed,
                                                           kwargs)


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
    # every insert hands control back to Python part way through a block
    # of 624 words; cutoffs end runs between two inserts, between an
    # insert and a twist, and at the insert that covers the front, after
    # which the last splice is applied when the run ends
    covered = set()
    for n, cutoff, variant, mti in itertools.product(
            (4, 8), range(1, 60), ("original", "modified"), (500, 610)):
        spec = BenchmarkSpec(Kind.OMM, n)
        alg = AlgorithmSpec.from_names("gsemo", variant, cutoff)
        compiled = outcome(monkeypatch, True, spec, alg, 2, at_index(mti))
        assert compiled == outcome(monkeypatch, False, spec, alg, 2,
                                   at_index(mti)), (n, cutoff, variant, mti)
        covered.add(not compiled[0].censored)
    assert covered == {False, True}


@needs_compiler
def test_tables_do_not_leak_between_kinds(monkeypatch, kernel):
    # the read-only tables are cached per benchmark instance; omm, ojzj and
    # cocz of one n share the flip-count distribution but not the values
    # or the half mask, and must not be handed each other's
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


def uniform_words(u: float) -> list[int]:
    """The two outputs from which ``random()`` makes u."""
    k = int(u * 2 ** 53)
    assert k / 2 ** 53 == u
    return [(k >> 26) << 5, (k & (2 ** 26 - 1)) << 6]


@needs_compiler
@pytest.mark.parametrize("n", [3, 8, 32, 33, 64, 127])
def test_flip_count_ties(monkeypatch, kernel, n):
    # the flip count is the least k with u <= cdf[k]; u is placed on
    # cdf[0], cdf[1] and cdf[2] exactly, where a strict comparison would
    # draw one more position
    cdf = _flip_count_cdf(n)
    spec = BenchmarkSpec(Kind.OMM, n)
    for j, variant in itertools.product(range(3), ("original", "modified")):
        if not (cdf[j] * 2 ** 53).is_integer():
            continue
        alg = AlgorithmSpec.from_names("gsemo", variant, 3)

        def rig(state):
            # a single member: no parent draw under uniform selection, and
            # a slot draw that hits it under slot selection
            words = uniform_words(cdf[j])
            if variant == "modified":
                bits = (state.slot_draw_count - 1).bit_length()
                words.insert(0, state.pop.slots[0] << (32 - bits))
            next_outputs(state.rng, words)

        python = outcome(monkeypatch, False, spec, alg, 5, rig)
        assert python == outcome(monkeypatch, True, spec, alg, 5, rig), j


def test_rigged_draws_reach_the_loop():
    # the words placed by next_outputs come out in order
    import random
    rng = random.Random(1)
    words = [1, 2 ** 32 - 1, 12345, 0]
    next_outputs(rng, words)
    assert [rng.getrandbits(32) for _ in words] == words
    next_outputs(rng, uniform_words(0.75))
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
