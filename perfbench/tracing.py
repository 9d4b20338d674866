"""Instrumentation the benchmark installs around semolab's public functions.

Nothing under ``src/`` changes: every probe is a wrapper set onto a module
or class attribute for the duration of one round and taken off again.

* ``TrialClock`` times each trial (one ``run_until_cover`` or
  ``run_offspring_budget`` call) in wall and process-CPU time on the clock
  of ``speed.SpeedProbe``. It is on in every round, traced or not.
* ``Tracer`` is the traced run. Per-trial and per-suite calls become spans
  with a parent id. Per-iteration calls (``evaluate``, ``insert``,
  ``measure``, ``step``, ...) are aggregated into call count and total ns
  under the innermost open span instead of being stored one by one.

Patch points, one per call site that reaches a layer:

========================  ===================================================
layer                     attribute replaced
========================  ===================================================
engine                    experiments.run_until_cover / run_offspring_budget,
                          engine.init_state, engine.step, engine.measure,
                          experiments.measure, engine.standard_flip_mask
core                      core.Population.insert
benchmarks                benchmarks.BenchmarkSpec.kernels (wraps evaluate)
experiments               run_grid, trial_seed, check_*, fit_scaling, CSV
                          write and load (in experiments and in cli)
cli                       cli.main (one span per sub-command)
========================  ===================================================
"""

from __future__ import annotations

import dataclasses
import json
import random
from bisect import bisect_left
from time import perf_counter_ns, process_time_ns

import speed
from semolab import benchmarks, cli, core, engine, experiments

# inserts kept per (benchmark, n, k) cell for the per-call replay
STREAM_CAP = 50_000


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


def trial_iterations(result) -> int:
    """Engine iterations of a finished trial, idle slot draws included."""
    if isinstance(result, engine.TrialResult):
        return result.runtime_iters
    return result.t


def trial_offspring(result) -> int:
    """Offspring created (objective evaluations minus the initial one)."""
    if isinstance(result, engine.TrialResult):
        return result.runtime_evals - 1
    return result.evaluations - 1


class TrialClock:
    """Work-clock start and end, CPU time and iteration count of every
    trial."""

    def __init__(self, probe: speed.SpeedProbe):
        self.probe = probe
        self.bounds: list[tuple[int, int]] = []
        self.cpu_ns: list[int] = []
        self.iterations: list[int] = []
        self.started = 0
        self.raised = 0
        self._patches = Patches()

    def _wrap(self, fn):
        now = self.probe.now

        def timed(*args, **kwargs):
            self.started += 1
            w0, c0 = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised += 1
                raise
            w1, c1 = now()
            self.bounds.append((w0, w1))
            self.cpu_ns.append(c1 - c0)
            self.iterations.append(trial_iterations(result))
            return result
        return timed

    def install(self):
        for name in ("run_until_cover", "run_offspring_budget"):
            self._patches.set(experiments, name,
                              self._wrap(getattr(experiments, name)))

    def uninstall(self):
        self._patches.undo()


class Span:
    __slots__ = ("id", "parent", "name", "depth", "start", "end", "self_ns",
                 "attrs", "agg", "last_change")

    def __init__(self, span_id, parent, name, depth):
        self.id = span_id
        self.parent = parent
        self.name = name
        # frame-stack height while the span is open; a call that starts at
        # this height is a direct child
        self.depth = depth
        self.start = self.end = self.self_ns = 0
        self.attrs: dict = {}
        # name -> [calls, total_ns, ns spent directly under this span, self_ns]
        self.agg: dict[str, list[int]] = {}
        self.last_change = 0

    @property
    def total_ns(self) -> int:
        return self.end - self.start

    def as_dict(self, origin: int) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start_ns": self.start - origin, "dur_ns": self.total_ns,
                "self_ns": self.self_ns, "attrs": self.attrs,
                "agg": {k: dict(zip(("calls", "total_ns", "top_ns",
                                     "self_ns"), v))
                        for k, v in self.agg.items()}}


class CountingRandom(random.Random):
    """Same stream as the run's generator; counts zero-flip mutation draws.

    ``random()`` is called once per standard-bit-mutation offspring to draw
    the flip count, and the count is 0 exactly when the draw is at most the
    first cumulative probability.
    """

    def random(self):
        u = super().random()
        if u <= self.zero_cdf:
            self.tracer.zero_flips += 1
        return u


# trial spans: the two public run functions
TRIAL_SPANS = ("engine.run_until_cover", "engine.run_offspring_budget")


class Tracer:
    """Spans and aggregated per-call counts for one traced round."""

    def __init__(self):
        self.root = Span(0, None, "round", 1)
        self.stack = [self.root]
        self.child = [0]  # open frames' accumulated child time
        self.spans: list[Span] = []
        self.next_id = 1
        self.zero_flips = 0
        # accepted, replaced at equal value, no-op (same bits), changed value
        # set, summed population size before the insert
        self.insert_counts = [0, 0, 0, 0, 0]
        self.streams: dict = {}
        self.recording = None
        self._patches = Patches()

    # -- wrappers ---------------------------------------------------------

    def _close(self, t0: int) -> tuple[int, int]:
        dt = perf_counter_ns() - t0
        inner = self.child.pop()
        self.child[-1] += dt
        return dt, inner

    def _account(self, name: str, depth: int, dt: int, inner: int):
        span = self.stack[-1]
        st = span.agg.get(name)
        if st is None:
            st = span.agg[name] = [0, 0, 0, 0]
        st[0] += 1
        st[1] += dt
        if depth == span.depth:
            st[2] += dt
        st[3] += dt - inner
        return span, st

    def hot(self, name: str, fn):
        """Aggregate calls of ``fn`` under the innermost open span."""
        child = self.child

        def wrapper(*args, **kwargs):
            depth = len(child)
            child.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt, inner = self._close(t0)
                self._account(name, depth, dt, inner)
        return wrapper

    def span(self, name, fn, on_result=None):
        """Record each call of ``fn`` as a span; ``name`` may be a callable
        of the call's arguments."""
        child = self.child
        stack = self.stack

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            parent = stack[-1]
            span = Span(self.next_id, parent.id, label, len(child) + 1)
            self.next_id += 1
            child.append(0)
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                span.end = perf_counter_ns()
                dt = span.end - span.start
                span.self_ns = dt - child.pop()
                child[-1] += dt
                stack.pop()
                self.spans.append(span)
            if on_result is not None:
                on_result(span, result)
            return result
        return wrapper

    def _insert(self, orig):
        child = self.child
        counts = self.insert_counts

        def insert(pop, bits, f1, f2):
            f1s = pop.f1s
            size = len(f1s)
            i = bisect_left(f1s, f1)
            equal = i < size and f1s[i] == f1 and pop.f2s[i] == f2
            same = equal and pop.xs[i] == bits
            rec = self.recording
            if rec is not None and len(rec) < STREAM_CAP:
                rec.append((bits, f1, f2))
            depth = len(child)
            child.append(0)
            t0 = perf_counter_ns()
            try:
                accepted = orig(pop, bits, f1, f2)
            finally:
                dt, inner = self._close(t0)
                span, st = self._account("core.insert", depth, dt, inner)
            counts[4] += size
            if accepted:
                counts[0] += 1
                if equal:
                    counts[1] += 1
                    counts[2] += same
                else:
                    counts[3] += 1
                    span.last_change = st[0]
            return accepted
        return insert

    def _kernels(self, orig):
        hot_kernels = self.hot("benchmarks.kernels", orig)

        def kernels(spec):
            kern = hot_kernels(spec)
            return dataclasses.replace(
                kern, evaluate=self.hot("benchmarks.evaluate", kern.evaluate))
        return kernels

    def _init_state(self, orig):
        hot_init = self.hot("engine.init_state", orig)

        def init_state(bspec, *args, **kwargs):
            if bspec in self.streams:
                self.recording = None
            else:
                self.recording = self.streams[bspec] = []
            state = hot_init(bspec, *args, **kwargs)
            rng = CountingRandom(0)
            rng.setstate(state.rng.getstate())
            rng.tracer = self
            rng.zero_cdf = state.flip_cdf[0] if state.flip_cdf else -1.0
            state.rng = rng
            return state
        return init_state

    # -- installation -----------------------------------------------------

    def install(self):
        p = self._patches

        def trial_done(span, result):
            span.attrs["iterations"] = trial_iterations(result)
            span.attrs["offspring"] = trial_offspring(result)
            if isinstance(result, engine.TrialResult):
                span.attrs["records"] = len(result.trajectory)

        p.set(core.Population, "insert", self._insert(core.Population.insert))
        p.set(benchmarks.BenchmarkSpec, "kernels",
              self._kernels(benchmarks.BenchmarkSpec.kernels))
        p.set(engine, "init_state", self._init_state(engine.init_state))
        for name in ("step", "standard_flip_mask"):
            p.set(engine, name, self.hot(f"engine.{name}",
                                         getattr(engine, name)))
        measure = self.hot("engine.measure", engine.measure)
        p.set(engine, "measure", measure)
        p.set(experiments, "measure", measure)
        for name in ("run_until_cover", "run_offspring_budget"):
            p.set(experiments, name, self.span(f"engine.{name}",
                                               getattr(experiments, name),
                                               trial_done))
        p.set(experiments, "trial_seed",
              self.hot("experiments.trial_seed", experiments.trial_seed))
        # public functions the cli module imported by name are patched in
        # both namespaces so that direct and CLI calls are both seen
        for name in ("run_grid", "check_front_spread", "check_border_distance",
                     "check_lower_bound_runtime", "check_scaling_exponent",
                     "check_semo_ojzj_failure",
                     "check_equivalence_modified_original", "fit_scaling",
                     "write_trials_csv", "write_trajectories_csv",
                     "load_results"):
            wrapped = self.span(f"experiments.{name}",
                                getattr(experiments, name))
            p.set(experiments, name, wrapped)
            if hasattr(cli, name):
                p.set(cli, name, wrapped)
        p.set(cli, "main", self.span(
            lambda argv=None: f"cli.{argv[0] if argv else 'main'}", cli.main))

    def uninstall(self):
        self._patches.undo()


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, wall_ns: int) -> dict[str, float]:
    """Per-layer figures of one traced round (wall_ns: the round's wall)."""
    spans = tracer.spans
    agg: dict[str, list[int]] = {}
    for span in (*spans, tracer.root):
        for name, values in span.agg.items():
            acc = agg.setdefault(name, [0, 0, 0, 0])
            for i, v in enumerate(values):
                acc[i] += v

    def calls(name):
        return agg.get(name, (0,))[0]

    def per_call(name, field=1):
        return _share(agg[name][field], calls(name)) if calls(name) else 0.0

    child_span_ns: dict[int, int] = {}
    for span in spans:
        child_span_ns[span.parent] = (child_span_ns.get(span.parent, 0)
                                      + span.total_ns)

    def span_ns(prefix, exclusive=False):
        return sum(s.total_ns - (child_span_ns.get(s.id, 0) if exclusive
                                 else 0)
                   for s in spans if s.name.startswith(prefix))

    trials = [s for s in spans if s.name in TRIAL_SPANS]
    loops = [s for s in trials if s.name == "engine.run_until_cover"]
    trial_ns = sum(s.total_ns for s in trials)
    iterations = sum(s.attrs.get("iterations", 0) for s in trials)
    offspring = sum(s.attrs.get("offspring", 0) for s in trials)
    inserts = sum(s.agg.get("core.insert", (0,))[0] for s in trials)
    frozen = sum(s.agg["core.insert"][0] - s.last_change
                 for s in trials if "core.insert" in s.agg)
    accounted = sum(s.self_ns + sum(v[2] for v in s.agg.values())
                    + child_span_ns.get(s.id, 0) for s in trials)
    ins = tracer.insert_counts
    n_ins = calls("core.insert")
    suites_s = span_ns("experiments.check_", exclusive=True) / 1e9
    fit_s = span_ns("experiments.fit_scaling") / 1e9
    seed_ns = agg.get("experiments.trial_seed", (0, 0))[1]
    wall_s = wall_ns / 1e9
    return {
        "engine.iterations": iterations,
        "engine.run_until_cover.calls": len(loops),
        "engine.run_until_cover.self_ns_per_iter": _share(
            sum(s.self_ns for s in loops),
            sum(s.attrs.get("iterations", 0) for s in loops)),
        "engine.run_offspring_budget.calls": len(trials) - len(loops),
        "engine.init_state.calls": calls("engine.init_state"),
        "engine.init_state.ns_per_call": per_call("engine.init_state"),
        "engine.step.calls": calls("engine.step"),
        "engine.step.self_ns_per_call": per_call("engine.step", 3),
        "engine.standard_flip_mask.calls": calls("engine.standard_flip_mask"),
        "engine.standard_flip_mask.ns_per_call": per_call(
            "engine.standard_flip_mask"),
        "engine.measure.calls": calls("engine.measure"),
        "engine.measure.ns_per_call": per_call("engine.measure"),
        "engine.measure.time_share": _share(
            agg.get("engine.measure", (0, 0))[1], trial_ns),
        "engine.idle_share": _share(iterations - offspring, iterations),
        "engine.zero_flip_share": _share(tracer.zero_flips, offspring),
        "engine.frozen_iter_share": _share(frozen, inserts),
        "core.insert.calls": n_ins,
        "core.insert.ns_per_call": per_call("core.insert"),
        "core.insert.accept_share": _share(ins[0], n_ins),
        "core.insert.noop_share": _share(ins[2], n_ins),
        "core.insert.change_share": _share(ins[3], n_ins),
        "core.pop_size_mean": _share(ins[4], n_ins),
        "benchmarks.evaluate.calls": calls("benchmarks.evaluate"),
        "benchmarks.evaluate.ns_per_call": per_call("benchmarks.evaluate"),
        "benchmarks.kernels.calls": calls("benchmarks.kernels"),
        "experiments.trial_seed.calls": calls("experiments.trial_seed"),
        "experiments.trial_seed.ns_per_call": per_call(
            "experiments.trial_seed"),
        "experiments.trial_seed.share": _share(seed_ns, wall_ns),
        "experiments.suites_s": suites_s,
        "experiments.suites_share": _share(suites_s, wall_s),
        "experiments.fit_scaling_s": fit_s,
        "experiments.fit_scaling_share": _share(fit_s, wall_s),
        "experiments.csv_write_s": span_ns("experiments.write_") / 1e9,
        "experiments.csv_load_s": span_ns("experiments.load_results") / 1e9,
        "experiments.trajectory_records": sum(
            s.attrs.get("records", 0) for s in loops),
        "cli.run_s": span_ns("cli.run") / 1e9,
        "cli.report_s": span_ns("cli.report") / 1e9,
        "trace.spans": len(spans),
        "trace.accounted_share": _share(accounted, trial_ns),
    }


def dump_spans(tracer: Tracer, path: str) -> None:
    """Write the round's spans as JSON lines, parents before children."""
    spans = sorted(tracer.spans, key=lambda s: s.start)
    origin = spans[0].start if spans else 0
    with open(path, "w") as fh:
        fh.write(json.dumps(tracer.root.as_dict(origin)) + "\n")
        for span in spans:
            fh.write(json.dumps(span.as_dict(origin)) + "\n")
