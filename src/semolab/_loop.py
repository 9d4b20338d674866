"""The compiled run loop for standard bit mutation: build, load and drive
``_loop.c``.

``library()`` compiles ``_loop.c`` on first use with the C compiler that
built the interpreter (``sysconfig``'s ``CC``, else ``cc``) and ``CFLAGS``,
and loads it with ``ctypes``. The library is cached in the ``__pycache__``
directory next to this module, under a name that holds the sha256 of the
source and the flags, so an edited source or a changed flag is rebuilt and
every later process loads the cached file. It is written under a
temporary name and renamed into place, so processes that build it at the
same time do not see each other's partial output; a successful build then
removes the libraries of other sources and flags. The kernel counts no
bits, and the dynamic loader picks the clone of its twist for the CPU
(see ``_loop.c``), so one portable build runs on every CPU. When the
library cannot be built or loaded, its ``struct loop`` does not have the
size of ``Loop``, or ``check_layout`` finds no CPython ``RandomObject``
(any other interpreter), ``library()`` warns and returns None, and the
engine runs its Python loop, which gives the same results.

``run`` drives the kernel for one run, and the kernel applies every
population update itself. It twists the run's ``random.Random`` in place,
so the generator is not copied; the members cross as one copy each way:
their bits, values and slots, and the front count. The struct and every
array the kernel writes are one ctypes object, a ``Block`` (``layout``),
whose ctypes fields alone lay out the arrays: the struct holds each
array's byte offset, from which the kernel finds it. That is one
allocation per run, into which ``run`` copies the fields that all runs of
the instance share from a cached image, sets five fields of its own and
copies the members. The whole run is one ``loop_run`` call, which points
the array fields at the arrays, tempers the generator's block and indexes
the members before it iterates. With trajectories on, the kernel also
writes the change point after every insert into a buffer of ``POINTS``
points, six ints each, which ``run`` appends to the run's flat list when
the call returns; only a run with more change points than that returns
early, to have the buffer drained, and is called again. The read-only
tables (flip-count thresholds and value classes) and the ``Block`` types
are built once per benchmark instance.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import random
import sys
from functools import lru_cache
from itertools import chain

from . import engine

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_loop.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
# portable: the cache lives in the checkout, which may move between
# machines (no -march=native)
CFLAGS = ("-O3", "-shared", "-fPIC")

# change points the kernel buffers before it returns to have them drained:
# a GSEMO run on cocz n=256 makes about 800, on omm n+1
POINTS = 1024

_u64p = ctypes.POINTER(ctypes.c_uint64)
_i32p = ctypes.POINTER(ctypes.c_int32)


# the kernel's arrays, in the order of their pointers in ``struct loop``
ARRAYS = ("points", "xs", "child", "f1s", "f2s", "slots", "at_slot",
          "first_at")


class Loop(ctypes.Structure):
    """``struct loop`` of ``_loop.c``, field for field; ``library()``
    checks its size against ``loop_sizeof()``. A run's ``Block``
    (``layout``) holds the arrays after it, at the byte offsets of the
    ``*_at`` fields; the kernel points the array fields at them."""

    _fields_ = [("mt", ctypes.c_void_p), ("index", ctypes.c_void_p),
                ("n", ctypes.c_int32), ("words", ctypes.c_int32),
                ("half", ctypes.c_int32), ("slot_draw", ctypes.c_int32),
                ("m", ctypes.c_int32), ("front_count", ctypes.c_int32),
                ("front_size", ctypes.c_int32), ("span", ctypes.c_int32),
                ("npoints", ctypes.c_int32), ("cap", ctypes.c_int32),
                ("t", ctypes.c_int64), ("cutoff", ctypes.c_int64),
                ("idle", ctypes.c_int64),
                ("thresholds", _u64p), ("classes", _i32p),
                *((f"{name}_at", ctypes.c_int64) for name in ARRAYS),
                ("points", ctypes.POINTER(ctypes.c_int64)), ("xs", _u64p),
                ("child", _u64p), ("f1s", _i32p), ("f2s", _i32p),
                ("slots", _i32p), ("at_slot", _i32p), ("first_at", _i32p),
                ("out", ctypes.c_uint32 * 624)]


# CPython's RandomObject: ``int index``, then ``state[624]``, after the header
OFFSET = object.__basicsize__


def compilers() -> list[list[str]]:
    """Compiler commands to try, in order."""
    import shlex
    import sysconfig
    cc = sysconfig.get_config_var("CC")
    found = [shlex.split(cc)] if cc else []
    return found + [["cc"]]


def build(path: str) -> None:
    """Compile ``SOURCE`` into the shared library ``path`` and remove the
    other libraries in its directory; OSError if no compiler succeeds.
    Only a cold cache pays for these imports."""
    import glob
    import shutil
    import subprocess
    import tempfile
    cache = os.path.dirname(path)
    os.makedirs(cache, exist_ok=True)
    work = tempfile.mkdtemp(dir=cache)
    try:
        out = os.path.join(work, os.path.basename(path))
        for cc in compilers():
            try:
                done = subprocess.run([*cc, *CFLAGS, "-o", out, SOURCE],
                                      capture_output=True).returncode == 0
            except OSError:
                continue
            if done:
                os.replace(out, path)
                break
        else:
            raise OSError(f"no C compiler could build {SOURCE}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for old in glob.glob(os.path.join(cache, "_loop-*.so")):
        if old != path:
            try:
                os.remove(old)
            except OSError:
                pass  # another process removed it first


def library_path() -> str:
    """Where the library built from the current source and flags is
    cached."""
    with open(SOURCE, "rb") as fh:
        digest = hashlib.sha256(fh.read())
    digest.update("\0".join(CFLAGS).encode())
    return os.path.join(CACHE_DIR, f"_loop-{digest.hexdigest()}.so")


def check_layout() -> None:
    """OSError unless a ``random.Random`` keeps its index at ``OFFSET`` and
    its state words after it, where ``run`` points the kernel: a probe read
    in place after some draws must match its ``getstate()``, and another
    state written in place must be what ``getstate()`` then returns."""
    if (sys.implementation.name != "cpython"
            or random.Random.__base__.__basicsize__ < OFFSET + 4 + 4 * 624):
        raise OSError("random.Random is not CPython's RandomObject")
    probe = random.Random(0)
    for _ in range(3):
        probe.random()
    index = ctypes.c_int.from_address(id(probe) + OFFSET)
    words = (ctypes.c_uint32 * 624).from_address(id(probe) + OFFSET + 4)
    if (*words, index.value) != probe.getstate()[1]:
        raise OSError(f"random.Random's state is not at offset {OFFSET}")
    other = random.Random(1).getstate()
    words[:], index.value = other[1][:624], other[1][624]
    if probe.getstate() != other:
        raise OSError("random.Random's state cannot be written in place")


@lru_cache(maxsize=None)
def library():
    """The loaded kernel, built on first use; None, with a warning, if
    that fails or the generator's layout is not CPython's."""
    try:
        check_layout()
        path = library_path()
        if not os.path.exists(path):
            build(path)
        lib = ctypes.CDLL(path)
        lib.loop_sizeof.argtypes = []
        lib.loop_sizeof.restype = ctypes.c_int
        if lib.loop_sizeof() != ctypes.sizeof(Loop):
            raise OSError(f"struct loop is {lib.loop_sizeof()} bytes in "
                          f"{path} and {ctypes.sizeof(Loop)} in Loop")
    except OSError as exc:
        import warnings
        warnings.warn(f"the compiled run loop (CPython only) is unavailable "
                      f"({exc}); GSEMO takes the Python loop: same results, "
                      "about 15 times slower", RuntimeWarning, stacklevel=2)
        return None
    ref = ctypes.POINTER(Loop)
    lib.loop_class.argtypes = [ref, ctypes.c_int32, ctypes.c_int32, _i32p]
    lib.loop_class.restype = None
    lib.loop_run.argtypes = [ref]
    lib.loop_run.restype = ctypes.c_int
    return lib


@lru_cache(maxsize=None)
def tables(bspec):
    """The kernel's read-only arrays for one benchmark instance: the
    flip-count thresholds and the class table.

    The thresholds are floor(cdf[k] * 2^53) for the flip-count
    distribution ``cdf`` of the Python loop. ``random()`` is x / 2^53 for
    a 53-bit integer x, and scaling by 2^53 is exact, so its u <= cdf[k]
    holds exactly when x <= floor(cdf[k] * 2^53); the floor, not the
    nearest integer, because cdf[k] * 2^53 is not always an integer. The
    last threshold is 2^53, above every x.

    The class table holds (f1, f2, slot, front flag) for every ones count
    of omm and ojzj, from ``Kernels.values``, ``slot_from_pair`` and
    ``is_front_pair``; it is None on cocz, whose classes the kernel
    computes from the half counts. The kernel only reads the arrays, so
    every run of the instance shares them."""
    n = bspec.n
    kern = bspec.kernels()
    thresholds = (ctypes.c_uint64 * (n + 1))(
        *(math.floor(c * 2 ** 53) for c in engine._flip_count_cdf(n)))
    classes = None
    if kern.values:
        classes = (ctypes.c_int32 * (4 * n + 4))(*chain.from_iterable(
            (f1, f2, kern.slot_from_pair(f1, f2), kern.is_front_pair(f1, f2))
            for f1, f2 in kern.values))
    return thresholds, classes


@lru_cache(maxsize=None)
def layout(bspec, slot_draw: int, points: int):
    """The ``Block`` type of the runs of ``bspec`` that draw slots from
    ``slot_draw`` (0: uniform parents) and buffer ``points`` change points,
    and the image of the fields those runs share.

    A ``Block`` is ``Loop`` followed by the kernel's arrays as ctypes
    fields, so a run allocates its struct and arrays as one zeroed object,
    and ctypes alone decides where each array lies: the image holds its
    byte offset in the ``*_at`` field of its name, from which the kernel
    finds it. The image is a probe's fields before the array pointers: the
    sizes, the offsets, and the table pointers, which ctypes type-checks
    as the probe is built. The cache entry holds the tables, so the
    pointers in the image stay valid."""
    n = bspec.n
    kern = bspec.kernels()
    words = (n + 63) // 64
    count = kern.slot_count
    i32, u64 = ctypes.c_int32, ctypes.c_uint64
    sizes = (ctypes.c_int64 * (6 * points), u64 * (words * count),
             u64 * words, i32 * count, i32 * count, i32 * count,
             # objective values lie in [0, 2n]: ones counts, plus the gap
             # on ojzj
             i32 * slot_draw, i32 * (2 * n + 1))
    block = type("Block", (Loop,), {"_fields_": [
        (f"{name}_", kind) for name, kind in zip(ARRAYS, sizes)]})
    thresholds, classes = tables(bspec)
    probe = block(n=n, words=words, half=n // 2, slot_draw=slot_draw,
                  front_size=kern.front_size, span=kern.slot_span,
                  cap=points, thresholds=thresholds, classes=classes,
                  **{f"{name}_at": getattr(block, f"{name}_").offset
                     for name in ARRAYS})
    return block, bytes(probe)[:Loop.points.offset], (thresholds, classes)


def run(lib, state, max_iters: int,
        points: list | None) -> tuple[int, int]:
    """Run a fresh ``state`` (standard bit mutation) until it covers the
    front or reaches ``max_iters``; returns the last iteration and the
    idle draws.

    This is one ``loop_run`` call, which advances ``state.rng`` in place.
    The struct and the kernel's arrays are one ``Block`` (``layout``):
    one allocation, the shared fields copied in from its image, five
    fields set per run, and the members copied into its arrays and back.
    With ``points`` a list, the kernel also writes the change point after
    every insert, the six ints of ``engine.point``, and ``run`` appends
    them to it, as ``_python_loop`` appends ``point(state)``: one
    ``tolist()`` of the buffer each time the kernel returns. A full buffer
    (return code 2) is drained and the kernel called again.
    """
    if not isinstance(state.rng, random.Random):  # no RandomObject to write
        raise TypeError(f"not a random.Random: {type(state.rng).__name__}")
    pop = state.pop
    xs = pop.xs
    m = len(xs)
    if m > state.kernels.slot_count:
        raise ValueError("population exceeds its slot count")
    slot_draw = (state.slot_draw_count
                 if state.alg.selection is engine.Selection.SLOT_PARENT
                 else 0)
    block, image, _ = layout(state.bspec, slot_draw,
                             0 if points is None else POINTS)
    r = block()
    memoryview(r).cast("B")[:len(image)] = image
    at = id(state.rng) + OFFSET
    r.mt = at + 4
    r.index = at
    r.m = m
    r.front_count = pop.front_count
    # a field wraps silently; no run reaches 2^63 iterations
    r.cutoff = min(max_iters, 2 ** 63 - 1)
    words = r.words
    size = 8 * words
    bits = r.xs_
    if words == 1:  # ctypes converts one-word members itself
        bits[:m] = xs
    else:
        memoryview(bits).cast("B")[:m * size] = b"".join(
            x.to_bytes(size, "little") for x in xs)
    r.f1s_[:m] = pop.f1s
    r.f2s_[:m] = pop.f2s
    r.slots_[:m] = pop.slots
    ref = ctypes.byref(r)
    buffer = memoryview(r.points_).cast("B").cast("q")
    drained = [] if points is None else points
    code = 2
    while code == 2:
        code = lib.loop_run(ref)
        drained += buffer[:6 * r.npoints].tolist()
        r.npoints = 0
    m = r.m
    if words == 1:
        xs[:] = bits[:m]
    else:
        raw = bytes(bits)
        from_bytes = int.from_bytes
        xs[:] = [from_bytes(raw[i:i + size], "little")
                 for i in range(0, m * size, size)]
    pop.f1s[:] = r.f1s_[:m]
    pop.f2s[:] = r.f2s_[:m]
    pop.slots[:] = r.slots_[:m]
    by_slot = pop._by_slot
    by_slot.clear()
    by_slot.update(zip(pop.slots, xs))
    pop.front_count = r.front_count
    return r.t, r.idle
