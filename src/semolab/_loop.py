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
removes the libraries of other sources and flags. The library has a
portable entry point and, on x86-64, one built for the popcnt instruction;
``library()`` picks one once per process (``entry_point``). When the
library cannot be built or loaded, or its ``struct loop`` does not have
the size of ``Loop``, ``library()`` warns and returns None, and the engine
runs its Python loop, which gives the same results.

``run`` drives the kernel for one run, and the kernel applies every
population update itself. The generator state crosses as one buffer copy
each way, at the start and at the end of the run, and so do the members:
their bits, values and slots, and the front count. The whole run is one
``loop_run`` call. With trajectories on, the kernel also writes the change
point after every insert into a buffer of ``POINTS`` points, which ``run``
turns into ``TrajectoryRecord``s when the call returns; only a run with
more change points than that returns early, to have the buffer drained,
and is called again. The read-only tables (flip-count thresholds, value
classes, half mask) are built once per benchmark instance.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import struct
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


class Loop(ctypes.Structure):
    """``struct loop`` of ``_loop.c``, field for field; ``library()``
    checks its size against ``loop_sizeof()``."""

    _fields_ = [("mt", ctypes.c_uint32 * 624), ("mti", ctypes.c_int32),
                ("n", ctypes.c_int32), ("words", ctypes.c_int32),
                ("half", ctypes.c_int32), ("slot_draw", ctypes.c_int32),
                ("m", ctypes.c_int32), ("front_count", ctypes.c_int32),
                ("front_size", ctypes.c_int32), ("span", ctypes.c_int32),
                ("npoints", ctypes.c_int32), ("cap", ctypes.c_int32),
                ("t", ctypes.c_int64), ("cutoff", ctypes.c_int64),
                ("idle", ctypes.c_int64),
                ("points", ctypes.POINTER(ctypes.c_int64)),
                ("thresholds", _u64p), ("classes", _i32p),
                ("half_mask", _u64p), ("xs", _u64p),
                ("f1s", _i32p), ("f2s", _i32p), ("slots", _i32p),
                ("at_slot", _i32p), ("first_at", _i32p), ("child", _u64p),
                ("out", ctypes.c_uint32 * 624)]


# Loop.mt as one buffer: the generator state crosses in a single copy
MT_FORMAT = "624I"


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


def entry_point(lib):
    """The loop entry point for this CPU: ``loop_run_popcnt`` where the
    library has it (x86-64) and the CPU has the instruction, else the
    portable ``loop_run``."""
    popcnt = getattr(lib, "loop_run_popcnt", None)
    if popcnt is not None and lib.loop_cpu_has_popcnt():
        return popcnt
    return lib.loop_run


@lru_cache(maxsize=None)
def library():
    """The loaded kernel, built on first use, with its entry point for
    this CPU as ``run``; None, with a warning, if that fails."""
    try:
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
        warnings.warn(f"the compiled run loop is unavailable ({exc}); GSEMO "
                      "runs take the Python loop, with the same results, "
                      "about 15 times slower", RuntimeWarning, stacklevel=2)
        return None
    ref = ctypes.POINTER(Loop)
    i32, c_int = ctypes.c_int32, ctypes.c_int
    for name, argtypes, restype in (
            ("loop_start", [ref], None),
            ("loop_class", [ref, i32, i32, _i32p], None),
            ("loop_run", [ref], c_int),
            # x86-64 only
            ("loop_run_popcnt", [ref], c_int),
            ("loop_cpu_has_popcnt", [], c_int)):
        func = getattr(lib, name, None)
        if func is not None:
            func.argtypes = argtypes
            func.restype = restype
    lib.run = entry_point(lib)
    return lib


@lru_cache(maxsize=None)
def tables(bspec):
    """The kernel's read-only arrays for one benchmark instance: the
    flip-count thresholds, the class table and the half mask.

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
    words = (n + 63) // 64
    thresholds = (ctypes.c_uint64 * (n + 1))(
        *(math.floor(c * 2 ** 53) for c in engine._flip_count_cdf(n)))
    classes = None
    if kern.values:
        classes = (ctypes.c_int32 * (4 * n + 4))(*chain.from_iterable(
            (f1, f2, kern.slot_from_pair(f1, f2), kern.is_front_pair(f1, f2))
            for f1, f2 in kern.values))
    half_mask = (ctypes.c_uint64 * words).from_buffer_copy(
        kern.half_mask.to_bytes(words * 8, "little"))
    return thresholds, classes, half_mask


def run(lib, state, max_iters: int,
        changes: list | None) -> tuple[int, int]:
    """Run a fresh ``state`` (standard bit mutation) until it covers the
    front or reaches ``max_iters``; returns the last iteration and the
    idle draws.

    This is one ``loop_run`` call. With ``changes`` a list, the kernel
    also writes the change point after every insert, the fields of
    ``engine.measure``, and ``run`` appends them to it as records, as
    ``_python_loop`` appends ``measure(state)``. When the buffer fills
    (return code 2) they are appended and the kernel is called again.
    """
    pop = state.pop
    kern = state.kernels
    xs = pop.xs
    n = state.n
    words = (n + 63) // 64
    size = words * 8
    cap = kern.slot_count
    if len(xs) > cap:
        raise ValueError("population exceeds its slot count")
    slot_draw = (state.slot_draw_count
                 if state.alg.selection is engine.Selection.SLOT_PARENT
                 else 0)
    i32, u64 = ctypes.c_int32, ctypes.c_uint64
    bits = (u64 * (words * cap)).from_buffer_copy(b"".join(
        x.to_bytes(size, "little") for x in xs).ljust(size * cap, b"\0"))
    f1s, f2s, slots = ((i32 * cap)(*a) for a in (pop.f1s, pop.f2s, pop.slots))
    thresholds, classes, half_mask = tables(state.bspec)
    version, internal, gauss = state.rng.getstate()
    points = (None if changes is None
              else (ctypes.c_int64 * (6 * POINTS))())
    # the struct keeps every buffer assigned to it alive
    r = Loop(mti=internal[624], n=n, words=words, half=n // 2,
             slot_draw=slot_draw, m=len(xs), front_count=pop.front_count,
             front_size=kern.front_size, span=kern.slot_span, cap=POINTS,
             # a field wraps silently; no run reaches 2^63 iterations
             cutoff=min(max_iters, 2 ** 63 - 1),
             points=points, thresholds=thresholds, classes=classes,
             half_mask=half_mask,
             xs=bits, f1s=f1s, f2s=f2s, slots=slots,
             at_slot=(i32 * max(slot_draw, 1))(),
             # objective values lie in [0, 2n]: ones counts, plus the gap
             # on ojzj
             first_at=(i32 * (2 * n + 1))(), child=(u64 * words)())
    struct.pack_into(MT_FORMAT, r, Loop.mt.offset, *internal[:624])
    ref = ctypes.byref(r)
    lib.loop_start(ref)
    if changes is None:
        lib.run(ref)
    else:
        words64 = memoryview(points).cast("B").cast("q")
        front_size = kern.front_size
        new, record = tuple.__new__, engine.TrajectoryRecord
        code = 2
        while code == 2:
            code = lib.run(ref)
            # six words per point: t, size, max_g1, z_count (both -1 for
            # None), d_pf, covered
            flat = iter(words64[:6 * r.npoints].tolist())
            r.npoints = 0
            changes.extend(
                new(record, (t, size, None if g1 < 0 else g1,
                             None if z < 0 else z, d, c, c / front_size))
                for t, size, g1, z, d, c in zip(*[flat] * 6))
    m = r.m
    raw = bytes(bits)
    from_bytes = int.from_bytes
    xs[:] = [from_bytes(raw[i:i + size], "little")
             for i in range(0, m * size, size)]
    pop.f1s[:] = f1s[:m]
    pop.f2s[:] = f2s[:m]
    pop.slots[:] = slots[:m]
    by_slot = pop._by_slot
    by_slot.clear()
    by_slot.update(zip(pop.slots, xs))
    pop.front_count = r.front_count
    mt = struct.unpack_from(MT_FORMAT, r, Loop.mt.offset)
    state.rng.setstate((version, mt + (r.mti,), gauss))
    return r.t, r.idle
