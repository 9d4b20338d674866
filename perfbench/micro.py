"""Per-call cost of the iteration's layers, with no wrapper in the way.

The traced round records, for the first trial of each (benchmark, n, k)
cell, the stream of ``Population.insert`` arguments (the initial individual
and every offspring, capped at ``tracing.STREAM_CAP``). Replaying a stream
into a fresh population rebuilds the run's populations exactly, so the
public functions see the inputs the workload gave them:

* ``Kernels.evaluate`` on every recorded bit string;
* ``Population.insert`` on the whole stream;
* ``measure``, ``select_parent_uniform`` and ``select_parent_slot`` on
  population snapshots taken along the replay;
* ``standard_flip_mask`` with the cell's n and flip-count table.

Each figure is the median over ``REPEATS`` passes of total time over calls,
after subtracting the same loop with the call removed.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

from semolab import core, engine

REPEATS = 5
SNAPSHOTS = 64
SNAPSHOT_PASSES = 20
FLIP_MASKS = 20_000


def _fresh(kern):
    return core.Population(kern.slot_count, kern.slot_from_pair,
                           kern.is_front_pair)


def _copy(kern, pop):
    # members are mutually non-dominated, so re-inserting keeps all of them
    clone = _fresh(kern)
    for b, f1, f2 in pop.members():
        clone.insert(b, f1, f2)
    return clone


def _cell_costs(bspec, stream) -> dict[str, tuple[int, int]]:
    """(ns, calls) per function for one recorded stream, one pass."""
    kern = bspec.kernels()
    costs = {}

    evaluate = kern.evaluate
    bits = [b for b, _, _ in stream]
    t0 = perf_counter_ns()
    for b in bits:
        evaluate(b)
    t1 = perf_counter_ns()
    for b in bits:
        pass
    t2 = perf_counter_ns()
    costs["evaluate"] = ((t1 - t0) - (t2 - t1), len(bits))

    insert = _fresh(kern).insert
    t0 = perf_counter_ns()
    for b, f1, f2 in stream:
        insert(b, f1, f2)
    t1 = perf_counter_ns()
    for b, f1, f2 in stream:
        pass
    t2 = perf_counter_ns()
    costs["insert"] = ((t1 - t0) - (t2 - t1), len(stream))

    pop = _fresh(kern)
    stride = max(1, len(stream) // SNAPSHOTS)
    snaps = []
    for i, (b, f1, f2) in enumerate(stream, 1):
        pop.insert(b, f1, f2)
        if i % stride == 0:
            snaps.append(_copy(kern, pop))
    snaps = snaps * SNAPSHOT_PASSES

    state = engine.init_state(bspec, engine.AlgorithmSpec.gsemo(), 0)
    measure = engine.measure
    t0 = perf_counter_ns()
    for p in snaps:
        state.pop = p
        measure(state)
    t1 = perf_counter_ns()
    for p in snaps:
        state.pop = p
    t2 = perf_counter_ns()
    costs["measure"] = ((t1 - t0) - (t2 - t1), len(snaps))

    rng = random.Random(0)
    for name, select in (("select_parent_uniform",
                          engine.select_parent_uniform),
                         ("select_parent_slot", engine.select_parent_slot)):
        t0 = perf_counter_ns()
        for p in snaps:
            select(p, rng)
        t1 = perf_counter_ns()
        for p in snaps:
            pass
        t2 = perf_counter_ns()
        costs[name] = ((t1 - t0) - (t2 - t1), len(snaps))

    flip = engine.standard_flip_mask
    n = bspec.n
    cdf = state.flip_cdf
    t0 = perf_counter_ns()
    for _ in range(FLIP_MASKS):
        flip(n, cdf, rng)
    t1 = perf_counter_ns()
    for _ in range(FLIP_MASKS):
        pass
    t2 = perf_counter_ns()
    costs["standard_flip_mask"] = ((t1 - t0) - (t2 - t1), FLIP_MASKS)
    return costs


def replay(streams: dict) -> dict[str, float]:
    """ns per call of each function over all recorded streams."""
    per_pass: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        totals: dict[str, list[int]] = {}
        for bspec, stream in streams.items():
            if not stream:
                continue
            for name, (ns, calls) in _cell_costs(bspec, stream).items():
                acc = totals.setdefault(name, [0, 0])
                acc[0] += ns
                acc[1] += calls
        for name, (ns, calls) in totals.items():
            per_pass.setdefault(name, []).append(ns / calls)
    return {f"micro.{name}.ns_per_call": statistics.median(values)
            for name, values in per_pass.items()}
