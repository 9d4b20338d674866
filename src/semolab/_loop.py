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
removes the libraries of other sources and flags. When it cannot be built
or loaded, ``library()`` returns None and the engine runs its Python loop,
which gives the same results.

``run`` drives the kernel for one run. The generator state crosses as one
buffer copy each way, at the start and at the end of the run, and so do
the member bits. For every offspring that changes the value set it calls
``Population.insert`` (and the engine's ``measure``) and hands the change
to the members to the next ``loop_run``, one foreign call per insert. The
read-only tables (flip-count distribution, objective values, half mask)
are built once per benchmark instance.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import struct
from bisect import bisect_left
from functools import lru_cache
from itertools import chain

from . import engine

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_loop.c")
CACHE_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
# portable: the cache lives in the checkout, which may move between
# machines (no -march=native), and the kernel's arithmetic must stay exact
# (never -ffast-math)
CFLAGS = ("-O3", "-shared", "-fPIC")

_u64p = ctypes.POINTER(ctypes.c_uint64)
_i32p = ctypes.POINTER(ctypes.c_int32)


class Loop(ctypes.Structure):
    """``struct loop`` of ``_loop.c``, field for field."""

    _fields_ = [("mt", ctypes.c_uint32 * 624), ("mti", ctypes.c_int32),
                ("n", ctypes.c_int32), ("words", ctypes.c_int32),
                ("half", ctypes.c_int32), ("slot_draw", ctypes.c_int32),
                ("m", ctypes.c_int32), ("f1", ctypes.c_int32),
                ("f2", ctypes.c_int32), ("lo", ctypes.c_int32),
                ("hi", ctypes.c_int32), ("slot", ctypes.c_int32),
                ("t", ctypes.c_int64), ("cutoff", ctypes.c_int64),
                ("idle", ctypes.c_int64),
                ("cdf", ctypes.POINTER(ctypes.c_double)),
                ("values", _i32p), ("half_mask", _u64p), ("xs", _u64p),
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


@lru_cache(maxsize=None)
def library():
    """The loaded kernel, built on first use; None if that fails."""
    try:
        path = library_path()
        if not os.path.exists(path):
            build(path)
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    ref = ctypes.POINTER(Loop)
    for name, restype in (("loop_start", None), ("loop_run", ctypes.c_int),
                          ("loop_splice", None)):
        func = getattr(lib, name)
        func.argtypes = [ref]
        func.restype = restype
    return lib


@lru_cache(maxsize=None)
def tables(bspec):
    """The kernel's read-only arrays for one benchmark instance: the
    flip-count distribution, the objective pair of every ones count (None
    on cocz) and the half mask. The kernel only reads them, so every run
    of the instance shares them."""
    n = bspec.n
    kern = bspec.kernels()
    words = (n + 63) // 64
    cdf = (ctypes.c_double * (n + 1))(*engine._flip_count_cdf(n))
    values = ((ctypes.c_int32 * (2 * n + 2))(*chain.from_iterable(
        kern.values)) if kern.values else None)
    half_mask = (ctypes.c_uint64 * words).from_buffer_copy(
        kern.half_mask.to_bytes(words * 8, "little"))
    return cdf, values, half_mask


def run(lib, state, max_iters: int,
        changes: list | None) -> tuple[int, int]:
    """Run a fresh ``state`` (standard bit mutation) until it covers the
    front or reaches ``max_iters``; returns the last iteration and the
    idle draws.

    With ``changes`` a list, ``engine.measure(state)`` is appended to it
    after every insert, as in the engine's Python loop.
    """
    pop = state.pop
    kern = state.kernels
    xs, f1s, slots = pop.xs, pop.f1s, pop.slots
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
    child = (u64 * words)()
    cdf, values, half_mask = tables(state.bspec)
    version, internal, gauss = state.rng.getstate()
    # the struct keeps every buffer assigned to it alive
    r = Loop(mti=internal[624], n=n, words=words, half=n // 2,
             slot_draw=slot_draw, m=len(xs),
             # a field wraps silently; no run reaches 2^63 iterations
             cutoff=min(max_iters, 2 ** 63 - 1),
             cdf=cdf, values=values, half_mask=half_mask,
             xs=bits, f1s=(i32 * cap)(*f1s), f2s=(i32 * cap)(*pop.f2s),
             slots=(i32 * cap)(*slots), at_slot=(i32 * max(slot_draw, 1))(),
             # objective values lie in [0, 2n]: ones counts, plus the gap
             # on ojzj
             first_at=(i32 * (2 * n + 1))(), child=child)
    struct.pack_into(MT_FORMAT, r, Loop.mt.offset, *internal[:624])
    ref = ctypes.byref(r)
    lib.loop_start(ref)
    loop_run = lib.loop_run
    insert = pop.insert
    front_size = kern.front_size
    from_bytes = int.from_bytes
    while loop_run(ref):
        f1 = r.f1
        m = len(xs)
        insert(from_bytes(child, "little"), f1, r.f2)
        # the splice the next loop_run applies
        r.lo = lo = bisect_left(f1s, f1)
        r.hi = lo + m + 1 - len(xs)
        r.slot = slots[lo]
        if changes is not None:
            state.t = r.t
            changes.append(engine.measure(state))
        if pop.front_count == front_size:
            break
    lib.loop_splice(ref)
    raw = bytes(bits)
    xs[:] = [from_bytes(raw[i:i + size], "little")
             for i in range(0, len(xs) * size, size)]
    pop._by_slot.update(zip(slots, xs))
    mt = struct.unpack_from(MT_FORMAT, r, Loop.mt.offset)
    state.rng.setstate((version, mt + (r.mti,), gauss))
    return r.t, r.idle
