"""Seeded multi-trial harness, scaling fits, hypothesis suites, and the
CSV result pipeline.

A grid run executes ``trials`` independent trials per (benchmark, n, k)
cell. Every trial's seed is derived by hashing the master seed together
with the cell identity and trial index, so the result set is a pure
function of the configuration, independent of scheduling and cell order.
The data suites are pure functions of a result collection and never
re-run simulations; the equivalence suite is the exception, and makes its
own budget runs from its master seed. Suite thresholds come from
``calibration`` only, and every report embeds the master seed and (for
the data suites) a configuration hash so its inputs can be regenerated.

numpy, ``scipy.stats`` and ``multiprocessing`` are imported inside the
functions that call them (``fit_scaling``, ``check_lower_bound_runtime``,
``check_equivalence_modified_original`` and ``run_grid`` with jobs > 1).
Loading them takes over ten times as long as the rest of the package,
and most processes (a ``run``, the oracle, the tail bounds) never call them.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, replace
from itertools import takewhile
from operator import itemgetter
from typing import Optional, Sequence

from . import calibration as cal
from .benchmarks import BenchmarkSpec, Kind
from .bounds import growth_law, reference_model
from .engine import (AlgorithmSpec, Trajectory, TrajectoryRecord,
                     TrialResult, measure, run_offspring_budget,
                     run_until_cover)

MAX_ITERATION_LIMIT = 2 ** 62  # cells beyond this are rejected up front


@dataclass(frozen=True)
class Checkpoint:
    """Named per-cell iteration checkpoint, e.g. 0.001 * n^2 * ln n.

    The shape is one of ``bounds.growth_law``'s ("n2_log", "n2",
    "n_pow_k1", "const"); values are floored to integers. The name must
    survive the config text, where ";" separates checkpoints, ":" their
    fields, and each line is read stripped.
    """

    name: str
    shape: str
    coefficient: float

    def __post_init__(self):
        if (not self.name or self.name != self.name.strip()
                or any(c in self.name for c in ";:\r\n")):
            raise ValueError(f"checkpoint name must be non-empty, without "
                             f"';', ':', line breaks or surrounding "
                             f"whitespace, got {self.name!r}")
        # an int would be written as "50" and read back as 50.0, an equal
        # config with a different config_hash
        object.__setattr__(self, "coefficient", float(self.coefficient))

    def iterations(self, n: int, k: Optional[int] = None) -> int:
        try:
            result = int(growth_law(self.shape, n, k, self.coefficient))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"checkpoint {self.name!r}: {exc}") from None
        if result < 0:
            raise ValueError(f"checkpoint {self.name!r} is negative at n={n}")
        return result


# keys of the key=value config text, in the order ``to_kv`` writes them
CONFIG_KEYS = ("benchmark", "alg", "variant", "n", "k", "trials", "seed",
               "max_iters", "interior_init", "record_trajectories",
               "checkpoint")
# written next to the settings for the record; ``from_kv`` skips them
DERIVED_KEYS = ("config_hash", "calibration_version")
_SWITCHES = {"on": True, "true": True, "1": True, "yes": True,
             "off": False, "false": False, "0": False, "no": False}
_INTS = (lambda text: tuple(int(p) for p in text.split(",") if p.strip()),
         "a comma-separated integer list")
_SWITCH = (lambda text: _SWITCHES[text.strip().lower()], "on or off")
_KV_FORMS = {"n": _INTS, "k": _INTS, "trials": (int, "an integer"),
             "seed": (int, "an integer"),
             "max_iters": (lambda text: int(text) if text else None,
                           "an integer"),
             "interior_init": _SWITCH, "record_trajectories": _SWITCH}


def _kv(values: dict[str, str], key: str, default: str = ""):
    """The value of ``key`` parsed by its text form (see ``to_kv``)."""
    text = values.get(key, default)
    parse, form = _KV_FORMS[key]
    try:
        return parse(text)
    except (KeyError, ValueError):
        raise ValueError(f"{key} must be {form}, got {text!r}") from None


def _kv_checkpoints(text: str) -> tuple[Checkpoint, ...]:
    checkpoints = []
    for item in filter(None, text.split(";")):
        parts = item.split(":")
        try:
            if len(parts) != 3:
                raise ValueError("checkpoint must be name:shape:coefficient")
            checkpoints.append(Checkpoint(parts[0], parts[1], float(parts[2])))
        except ValueError as exc:
            raise ValueError(f"bad checkpoint {item!r} in {text!r}: {exc}"
                             ) from None
    return tuple(checkpoints)


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: str
    algorithm: str
    variant: str
    ns: tuple[int, ...]
    trials: int
    master_seed: int
    ks: tuple[int, ...] = ()
    max_iterations: Optional[int] = None
    interior_init: bool = False
    record_trajectories: bool = True
    checkpoints: tuple[Checkpoint, ...] = ()

    def __post_init__(self):
        if self.benchmark not in list(Kind):
            raise ValueError(f"unknown benchmark {self.benchmark!r}")
        AlgorithmSpec.from_names(self.algorithm, self.variant)
        if self.trials < 1:
            raise ValueError("trials per cell must be >= 1")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError(f"iteration cutoff must be >= 0, got "
                             f"{self.max_iterations}")
        if not self.ns:
            raise ValueError("empty problem-size grid")
        if any(b <= a for a, b in zip(self.ns, self.ns[1:])):
            raise ValueError("problem-size grid must be strictly increasing")
        if self.benchmark == "ojzj":
            if not self.ks:
                raise ValueError("ojzj grid needs at least one gap size")
        elif self.ks:
            raise ValueError(f"{self.benchmark} takes no gap sizes")
        if len(set(self.ks)) != len(self.ks):
            raise ValueError(f"gap sizes must be distinct, got k="
                             f"{','.join(map(str, self.ks))}")
        if self.interior_init and self.benchmark != "ojzj":
            raise ValueError("interior initialization is ojzj-specific")
        for n, k in self.cells():
            BenchmarkSpec(Kind(self.benchmark), n, k)  # validates n/k
            for cp in self.checkpoints:
                cp.iterations(n, k)

    def cells(self) -> list[tuple[int, Optional[int]]]:
        if self.benchmark == "ojzj":
            return [(n, k) for n in self.ns for k in self.ks]
        return [(n, None) for n in self.ns]

    def benchmark_spec(self, n: int, k: Optional[int]) -> BenchmarkSpec:
        return BenchmarkSpec(Kind(self.benchmark), n, k)

    def algorithm_spec(self) -> AlgorithmSpec:
        return replace(AlgorithmSpec.from_names(
            self.algorithm, self.variant, self.max_iterations),
            interior_init=self.interior_init)

    def to_kv(self) -> dict[str, str]:
        """The text value of every key in ``CONFIG_KEYS``: n and k as
        comma lists, switches as on/off, an empty max_iters for the default
        cutoff and checkpoints as ``name:shape:coefficient;...``."""
        return dict(zip(CONFIG_KEYS, (
            self.benchmark, self.algorithm, self.variant,
            ",".join(map(str, self.ns)), ",".join(map(str, self.ks)),
            str(self.trials), str(self.master_seed),
            "" if self.max_iterations is None else str(self.max_iterations),
            "on" if self.interior_init else "off",
            "on" if self.record_trajectories else "off",
            ";".join(f"{c.name}:{c.shape}:{c.coefficient}"
                     for c in self.checkpoints))))

    @classmethod
    def from_kv(cls, values: dict[str, str]) -> "ExperimentConfig":
        """Parse the text values of ``to_kv``. The keys benchmark, alg,
        variant, n, trials and seed are required; a missing optional key
        takes the field's default, and ``DERIVED_KEYS`` are skipped."""
        unknown = set(values) - set(CONFIG_KEYS) - set(DERIVED_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: "
                             f"{', '.join(sorted(unknown))}")
        missing = [key for key in ("benchmark", "alg", "variant", "n",
                                   "trials", "seed") if key not in values]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        return cls(
            values["benchmark"], values["alg"], values["variant"],
            _kv(values, "n"), _kv(values, "trials"), _kv(values, "seed"),
            ks=_kv(values, "k"), max_iterations=_kv(values, "max_iters"),
            interior_init=_kv(values, "interior_init", "off"),
            record_trajectories=_kv(values, "record_trajectories", "on"),
            checkpoints=_kv_checkpoints(values.get("checkpoint", "")))


def config_hash(config: ExperimentConfig) -> str:
    """Short stable digest of a configuration, embedded in reports."""
    return hashlib.sha256(repr(config).encode()).hexdigest()[:16]


def trial_seed(master_seed: int, benchmark: str, n: int, k: Optional[int],
               algorithm: str, variant: str, trial: int) -> int:
    """Per-trial seed from the master seed and the cell identity.

    Hash-derived, so the seed depends only on what the trial is, never on
    where it sits in the execution schedule.
    """
    text = f"{master_seed}|{benchmark}|n={n}|k={k}|{algorithm}|{variant}|t={trial}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "big")


def _run_task(args) -> TrialResult:
    config, n, k, trial = args
    seed = trial_seed(config.master_seed, config.benchmark, n, k,
                      config.algorithm, config.variant, trial)
    bspec = config.benchmark_spec(n, k)
    sample_at = tuple(cp.iterations(n, k) for cp in config.checkpoints)
    return run_until_cover(bspec, config.algorithm_spec(), seed,
                           record_trajectory=config.record_trajectories,
                           sample_at=sample_at)


def run_grid(config: ExperimentConfig, jobs: int = 1) -> list[TrialResult]:
    """All trials of the grid, ordered by (cell, trial index).

    The output is identical for any ``jobs`` value and any scheduling,
    because seeds are content-derived and the collector keeps task order.
    """
    alg = config.algorithm_spec()
    for n, k in config.cells():
        cutoff = alg.cutoff(config.benchmark_spec(n, k))
        if cutoff > MAX_ITERATION_LIMIT:
            raise ValueError(
                f"cell n={n} k={k}: iteration cutoff {cutoff} exceeds the "
                f"supported limit {MAX_ITERATION_LIMIT}")
    tasks = [(config, n, k, trial)
             for n, k in config.cells()
             for trial in range(config.trials)]
    if jobs <= 1:
        return [_run_task(t) for t in tasks]
    from multiprocessing import Pool
    with Pool(processes=jobs) as pool:
        return pool.map(_run_task, tasks, chunksize=1)


# ---------------------------------------------------------------------------
# scaling fits


@dataclass(frozen=True)
class ScalingFit:
    """Log-log least squares of per-n median runtimes (evaluations, see
    ``_runtime_metric``) against a model term.

    ``pure_poly`` regresses log(median) on log(n); ``poly_log`` on the log
    of the series' reference growth law (``bounds.reference_model``):
    n^2 ln n for cocz and omm, n^(k+1) for ojzj with the series' gap size.
    The exponent is the slope, the constant exp(intercept); the CI comes
    from a trial-level bootstrap of the cell medians.
    """

    model: str
    exponent: float
    exponent_ci: tuple[float, float]
    constant: float
    residuals: tuple[float, ...]
    n_grid: tuple[int, ...]
    per_n_median: dict[int, float]
    per_n_iqr: dict[int, tuple[float, float]]


def _runtime_metric(result: TrialResult) -> float:
    """The runtime every fit and gate reads: evaluations, inf if censored."""
    return math.inf if result.censored else float(result.runtime_evals)


def _single_series(results: Sequence[TrialResult]) -> None:
    ids = {(r.benchmark, r.k, r.algorithm, r.variant) for r in results}
    if len(ids) != 1:
        raise ValueError(f"results mix incompatible cells: {sorted(ids)}")


def fit_scaling(results: Sequence[TrialResult], model: str = "pure_poly", *,
                bootstrap_seed: int = 0) -> ScalingFit:
    """Fit the growth of median runtimes over the n grid."""
    import numpy as np
    _single_series(results)
    by_n: dict[int, list[float]] = {}
    for r in results:
        by_n.setdefault(r.n, []).append(_runtime_metric(r))
    ns = sorted(by_n)
    if len(ns) < 3:
        raise ValueError(f"need >= 3 grid points for a fit, got {len(ns)}")
    medians = {}
    iqrs = {}
    for n in ns:
        values = by_n[n]
        med = float(np.median(values))
        if not math.isfinite(med):
            raise ValueError(
                f"cell n={n}: censored median ({sum(map(math.isinf, values))}"
                f"/{len(values)} trials censored); cannot fit")
        medians[n] = med
        finite = [v for v in values if math.isfinite(v)]
        iqrs[n] = (float(np.quantile(finite, 0.25)),
                   float(np.quantile(finite, 0.75)))

    kind, k = Kind(results[0].benchmark), results[0].k
    if model not in ("pure_poly", "poly_log"):
        raise ValueError(f"unknown scaling model {model!r}")
    x = np.array([math.log(float(n) if model == "pure_poly"
                           else reference_model(kind, n, k)) for n in ns])
    y = np.array([math.log(medians[n]) for n in ns])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = tuple(float(r) for r in (y - (slope * x + intercept)))

    bootstrap = cal.BOOTSTRAP_RESAMPLES
    slopes, dropped = _bootstrap_slopes(x, [by_n[n] for n in ns], bootstrap,
                                        bootstrap_seed)
    if dropped > bootstrap // 5:
        raise ValueError(
            f"{dropped}/{bootstrap} bootstrap resamples had censored "
            "medians; too much censoring for a stable CI")
    ci = (float(np.quantile(slopes, 0.025)), float(np.quantile(slopes, 0.975)))
    return ScalingFit(model=model, exponent=float(slope),
                      exponent_ci=ci, constant=float(math.exp(intercept)),
                      residuals=residuals, n_grid=tuple(ns),
                      per_n_median=medians, per_n_iqr=iqrs)


def _bootstrap_slopes(x, cells: list[list[float]], bootstrap: int,
                      seed: int):
    """Slopes of the log-median line over ``bootstrap`` resamples of the
    cells, and how many resamples were dropped.

    A resample draws each cell in turn, with replacement, from
    ``default_rng(seed)``, and stops drawing at the first cell whose median
    is not finite (a censored median); that resample is dropped. A drawn
    cell is a set of positions in the sorted cell, so its median is read
    from the sorted positions as ``np.median`` takes it (the middle value,
    or the mean of the middle two). Each kept resample gets its own
    ``polyfit``, as one right-hand side: a batched fit may sum in another
    order on another BLAS, and the slopes would then no longer match the
    per-resample fit bit for bit.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    integers = rng.integers
    ranked = []
    for values in cells:
        order = np.argsort(values, kind="stable")
        rank = np.empty(len(values), dtype=np.intp)
        rank[order] = np.arange(len(values))
        ranked.append((len(values), rank, np.asarray(values)[order].tolist()))
    slopes = []
    for _ in range(bootstrap):
        row = []
        for m, rank, ordered in ranked:
            pos = rank[integers(0, m, size=m)]
            pos.sort()
            mid = m // 2
            med = (ordered[pos[mid]] if m % 2
                   else (ordered[pos[mid - 1]] + ordered[pos[mid]]) / 2)
            if not math.isfinite(med):
                break
            row.append(math.log(med))
        if len(row) == len(ranked):
            slopes.append(np.polyfit(x, np.array(row), 1)[0])
    return slopes, bootstrap - len(slopes)


# ---------------------------------------------------------------------------
# hypothesis suites


@dataclass(frozen=True)
class CellOutcome:
    cell: str
    passes: int
    trials: int
    required: float
    detail: str = ""

    @property
    def frequency(self) -> float:
        return self.passes / self.trials if self.trials else 0.0

    @property
    def ok(self) -> bool:
        return self.trials > 0 and self.frequency >= self.required


@dataclass(frozen=True)
class HypothesisReport:
    """A suite's cells; it passes when it has cells and every one is ok."""

    hypothesis: str
    threshold: float
    cells: tuple[CellOutcome, ...]
    master_seed: Optional[int] = None
    config_hash: Optional[str] = None
    notes: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.cells) and all(c.ok for c in self.cells)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _cell_label(r: TrialResult) -> str:
    k = f",k={r.k}" if r.k is not None else ""
    return f"{r.benchmark},n={r.n}{k},{r.algorithm},{r.variant}"


def group_by_cell(results: Sequence[TrialResult]) -> dict[str, list[TrialResult]]:
    grouped: dict[str, list[TrialResult]] = {}
    for r in results:
        grouped.setdefault(_cell_label(r), []).append(r)
    return grouped


def _require_trajectories(results: Sequence[TrialResult], suite: str) -> None:
    missing = [r for r in results if not r.trajectory]
    if missing:
        raise ValueError(
            f"{suite}: {len(missing)} trials carry no trajectory samples; "
            "run the grid with trajectory recording enabled")


def check_front_spread(results: Sequence[TrialResult],
                       config: ExperimentConfig, *,
                       coefficient: float = cal.FRONT_SPREAD_C
                       ) -> HypothesisReport:
    """Time to gather a linear number of Pareto-optimal members.

    A trial passes when it first holds at least n/4 (cocz) resp. n/2
    (omm/ojzj) Pareto-optimal members within coefficient*n^2 iterations; a
    cell passes when ``PASS_FREQUENCY`` of its trials do. A cell whose
    front holds fewer points than that (ojzj at large k) is an error.
    """
    _require_trajectories(results, "front_spread")
    cells = []
    for label, group in group_by_cell(results).items():
        n = group[0].n
        need = math.ceil(n / 4) if group[0].benchmark == "cocz" else math.ceil(n / 2)
        front_size = BenchmarkSpec(Kind(group[0].benchmark), n,
                                   group[0].k).front_size
        if need > front_size:
            raise ValueError(f"front_spread: {label} needs {need} members, "
                             f"but its front has {front_size} points")
        budget = int(growth_law("n2", n, coefficient=coefficient))
        passes = 0
        for r in group:
            hit = next((ts[0] for rec, ts in r.trajectory.runs
                        if rec.covered >= need), None)
            if hit is not None and hit <= budget:
                passes += 1
        cells.append(CellOutcome(label, passes, len(group), cal.PASS_FREQUENCY,
                                 detail=f"need>={need} members within t<={budget}"))
    return HypothesisReport(
        hypothesis="front_spread", threshold=cal.PASS_FREQUENCY,
        cells=tuple(cells), master_seed=config.master_seed,
        config_hash=config_hash(config),
        notes=f"budget coefficient {coefficient:.4g} (calibrated)")


def check_border_distance(results: Sequence[TrialResult],
                          config: ExperimentConfig, *,
                          coefficient: float = cal.BORDER_DISTANCE_C
                          ) -> HypothesisReport:
    """Persistence of the distance to the extremal front points.

    A trial passes when every sampled iteration t <= floor(c*n^2*ln n) has
    population border distance >= sqrt(n) (>= max(sqrt(n), k) for ojzj);
    a cell passes when ``PASS_FREQUENCY`` of its trials do.
    """
    _require_trajectories(results, "border_distance")
    cells = []
    # sizes whose horizon is 0: their cells judge the initial population
    # only, so the report names them
    unjudged: set[int] = set()
    for label, group in group_by_cell(results).items():
        n = group[0].n
        k = group[0].k
        # the same point as the checkpoint border:n2_log:<coefficient>
        horizon = int(growth_law("n2_log", n, coefficient=coefficient))
        if not horizon:
            unjudged.add(n)
        bar = math.sqrt(n)
        if group[0].benchmark == "ojzj" and k is not None:
            bar = max(bar, float(k))
        passes = 0
        for r in group:
            # runs are in t order: the first past the horizon ends the scan
            worst = min(rec.d_pf for rec, ts in takewhile(
                lambda run: run[1][0] <= horizon, r.trajectory.runs))
            if worst >= bar:
                passes += 1
        cells.append(CellOutcome(label, passes, len(group), cal.PASS_FREQUENCY,
                                 detail=f"d_pf>={bar:.3g} through t<={horizon}"))
    notes = (f"horizon coefficient {coefficient:.4g} (calibrated, not a "
             "theoretical constant)")
    if unjudged:
        notes += (f"; horizon 0 at n={', '.join(map(str, sorted(unjudged)))}"
                  ": only t=0 is judged there")
    return HypothesisReport(
        hypothesis="border_distance", threshold=cal.PASS_FREQUENCY,
        cells=tuple(cells), master_seed=config.master_seed,
        config_hash=config_hash(config), notes=notes)


def check_lower_bound_runtime(results: Sequence[TrialResult],
                              config: ExperimentConfig, *,
                              epsilon: Optional[float] = None,
                              check_ratios: bool = True) -> HypothesisReport:
    """Growth-shape gate for cover times, in evaluations.

    Per grid point, the 10% runtime quantile must exceed epsilon*model(n);
    per grid doubling, the median ratio must land in the calibrated
    ``DOUBLING_RATIO_WINDOW`` (skipped with ``check_ratios=False``; the
    heavy-tailed gap benchmarks make desk-scale median ratios too noisy
    for a hard gate). Censored runtimes enter the q10 at their cutoff
    value (conservative) and poison medians (reported as failures).
    """
    import numpy as np
    _single_series(results)
    sample = results[0]
    kind = Kind(sample.benchmark)
    if epsilon is None:
        epsilon = cal.LOWER_BOUND_EPSILON[sample.benchmark]
    by_n: dict[int, list[TrialResult]] = {}
    for r in results:
        by_n.setdefault(r.n, []).append(r)
    cells = []
    medians: dict[int, float] = {}
    for n in sorted(by_n):
        group = by_n[n]
        censored = sum(r.censored for r in group)
        if censored > len(group) // 2:
            raise ValueError(
                f"cell n={n}: {censored}/{len(group)} trials censored; "
                "majority must finish for the runtime gate")
        q10 = float(np.quantile([float(r.runtime_evals) for r in group], 0.10))
        med = float(np.median([_runtime_metric(r) for r in group]))
        medians[n] = med
        floor_value = epsilon * reference_model(kind, n, sample.k)
        ok = q10 > floor_value
        cells.append(CellOutcome(
            f"{sample.benchmark},n={n}:q10", int(ok), 1, 1.0,
            detail=f"q10={q10:.0f} vs floor {floor_value:.0f}"))
    if check_ratios:
        ns = sorted(medians)
        lo, hi = cal.DOUBLING_RATIO_WINDOW[sample.benchmark]
        for n in ns:
            if 2 * n not in medians:
                continue
            ratio = medians[2 * n] / medians[n]
            ok = math.isfinite(ratio) and lo <= ratio <= hi
            cells.append(CellOutcome(
                f"{sample.benchmark},n={n}->{2 * n}:ratio", int(ok), 1, 1.0,
                detail=f"median ratio {ratio:.3g}, window [{lo}, {hi}]"))
    return HypothesisReport(
        hypothesis="lower_bound_runtime", threshold=1.0, cells=tuple(cells),
        master_seed=config.master_seed, config_hash=config_hash(config),
        notes=f"epsilon={epsilon}, growth metric=evals")


def check_semo_ojzj_failure(results: Sequence[TrialResult], *,
                            config: Optional[ExperimentConfig] = None
                            ) -> HypothesisReport:
    """One-bit mutation cannot reach the extremal points from the interior.

    Every semo cell must have zero covering trials; gsemo cells in the
    same result set act as controls and must cover in at least
    ``CONTROL_COVER_FREQUENCY`` of trials.
    """
    if any(r.benchmark != "ojzj" for r in results):
        raise ValueError("semo-failure suite expects ojzj results only")
    notes = []
    cells = []
    for label, group in group_by_cell(results).items():
        not_interior = [r for r in group if r.interior_init is False]
        unknown = [r for r in group if r.interior_init is None]
        if group[0].algorithm == "semo":
            if not_interior:
                raise ValueError(
                    f"{label}: {len(not_interior)} trials ran without "
                    "interior initialization; the failure argument needs it")
            if unknown:
                notes.append(f"{label}: interior flag unknown for "
                             f"{len(unknown)} trials (loaded from CSV)")
            passes = sum(r.censored for r in group)
            cells.append(CellOutcome(label, passes, len(group), 1.0,
                                     detail="censored (never covered)"))
        else:
            passes = sum(not r.censored for r in group)
            cells.append(CellOutcome(label, passes, len(group),
                                     cal.CONTROL_COVER_FREQUENCY,
                                     detail="control: covered"))
    return HypothesisReport(
        hypothesis="semo_ojzj_failure", threshold=1.0, cells=tuple(cells),
        master_seed=config.master_seed if config else None,
        config_hash=config_hash(config) if config else None,
        notes="; ".join(notes))


def _state_statistic(bspec: BenchmarkSpec, state) -> tuple[int, int]:
    rec = measure(state)
    first = rec.max_g1 if bspec.kind is Kind.COCZ else rec.covered
    return (first, rec.pop_size)


def check_equivalence_modified_original(
        bspec: BenchmarkSpec, *,
        algorithm: str = "gsemo",
        offspring_steps: int = 30,
        trials_per_variant: int = 10_000,
        master_seed: int = 0,
        slot_count_offset: int = 0) -> HypothesisReport:
    """Distributional equivalence of the two selection rules.

    Runs both variants for a fixed number of non-idle steps and compares
    the joint histogram of (best cooperative level, population size) with
    a two-sample chi-square test, which passes when its p-value exceeds
    ``EQUIVALENCE_P_THRESHOLD``. Filtering idle iterations away turns the
    slot-based process into the uniform one, so the histograms must agree;
    ``slot_count_offset`` breaks the modified variant's slot range for
    negative controls. At zero steps both variants keep their initial
    states and the test cannot fail, so it needs a step and a trial or more.
    """
    for name, value in (("offspring_steps", offspring_steps),
                        ("trials_per_variant", trials_per_variant)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    histograms: list[dict[tuple[int, int], int]] = []
    for variant, offset in (("modified", slot_count_offset), ("original", 0)):
        alg = replace(AlgorithmSpec.from_names(algorithm, variant),
                      slot_count_offset=offset)
        hist: dict[tuple[int, int], int] = {}
        for trial in range(trials_per_variant):
            seed = trial_seed(master_seed, bspec.kind.value, bspec.n, bspec.k,
                              algorithm, f"equiv-{variant}", trial)
            try:
                state = run_offspring_budget(bspec, alg, seed, offspring_steps)
            except RuntimeError:
                # a broken slot range can strand every member outside the
                # draw range; count the stuck run as its own outcome state
                key = (-1, -1)
            else:
                key = _state_statistic(bspec, state)
            hist[key] = hist.get(key, 0) + 1
        histograms.append(hist)
    h_mod, h_orig = histograms
    n1 = sum(h_mod.values())
    n2 = sum(h_orig.values())
    keys = sorted(set(h_mod) | set(h_orig))
    raw = [(h_mod.get(key, 0), h_orig.get(key, 0)) for key in keys]
    # pool rare bins so every expected count clears the chi-square rule
    total_floor = cal.EQUIVALENCE_MIN_EXPECTED * (n1 + n2) / min(n1, n2)
    raw.sort(key=lambda c: c[0] + c[1], reverse=True)
    bins: list[tuple[int, int]] = []
    rest = [0, 0]
    for c1, c2 in raw:
        if c1 + c2 >= total_floor:
            bins.append((c1, c2))
        else:
            rest[0] += c1
            rest[1] += c2
    if rest[0] + rest[1] > 0:
        if rest[0] + rest[1] >= total_floor or not bins:
            bins.append((rest[0], rest[1]))
        else:
            c1, c2 = bins.pop()
            bins.append((c1 + rest[0], c2 + rest[1]))
    if len(bins) < 2:
        raise ValueError(
            f"only {len(bins)} usable histogram bin(s) after pooling "
            f"(expected-count floor {cal.EQUIVALENCE_MIN_EXPECTED}); "
            "increase trials_per_variant for enough test power")
    stat = 0.0
    for c1, c2 in bins:
        tot = c1 + c2
        e1 = n1 * tot / (n1 + n2)
        e2 = n2 * tot / (n1 + n2)
        stat += (c1 - e1) ** 2 / e1 + (c2 - e2) ** 2 / e2
    dof = len(bins) - 1
    from scipy.stats import chi2
    p_value = float(chi2.sf(stat, dof))
    ok = p_value > cal.EQUIVALENCE_P_THRESHOLD
    k = f",k={bspec.k}" if bspec.k is not None else ""
    label = (f"{bspec.kind.value},n={bspec.n}{k},{algorithm},"
             f"m={offspring_steps},offset={slot_count_offset}")
    cell = CellOutcome(label, int(ok), 1, 1.0,
                       detail=f"chi2={stat:.2f}, dof={dof}, p={p_value:.5g}")
    return HypothesisReport(
        hypothesis="equivalence_modified_original",
        threshold=cal.EQUIVALENCE_P_THRESHOLD, cells=(cell,),
        master_seed=master_seed,
        notes=f"{trials_per_variant} trials per variant, "
              f"{len(bins)} pooled bins")


def check_scaling_exponent(results: Sequence[TrialResult],
                           config: ExperimentConfig, *,
                           window: Optional[tuple[float, float]] = None
                           ) -> tuple[HypothesisReport, ScalingFit]:
    """Fit the runtime growth with the pure-power model and gate the fitted
    exponent.

    n^2 log n data lands a little above exponent 2 and n^(k+1) data near
    k+1; the accepted windows come from the calibration defaults unless
    given explicitly.
    """
    _single_series(results)
    benchmark = results[0].benchmark
    if window is None:
        window = cal.EXPONENT_WINDOW[benchmark]
    fit = fit_scaling(results)
    lo, hi = window
    ok = lo <= fit.exponent <= hi
    cell = CellOutcome(
        f"{benchmark},exponent:pure_poly", int(ok), 1, 1.0,
        detail=f"exponent {fit.exponent:.3f} "
               f"(CI [{fit.exponent_ci[0]:.3f}, {fit.exponent_ci[1]:.3f}]), "
               f"window [{lo}, {hi}]")
    report = HypothesisReport(
        hypothesis="scaling_exponent", threshold=1.0, cells=(cell,),
        master_seed=config.master_seed, config_hash=config_hash(config),
        notes="model=pure_poly, metric=evals")
    return report, fit


# ---------------------------------------------------------------------------
# CSV pipeline

TRIALS_COLUMNS = ("benchmark", "n", "k", "algorithm", "variant", "seed",
                  "runtime_evals", "runtime_iters", "censored")
TRAJECTORY_COLUMNS = ("trial_id", "t", "pop_size", "max_g1", "z_count",
                      "d_pf", "front_covered")
# the most trajectory rows written at once; at the peak of a write a row
# holds about 130 bytes (tracemalloc), so about 9 MB in all
WRITE_TICKS = 1 << 16
REPORT_COLUMNS = ("suite", "cell", "passes", "trials", "frequency",
                  "required", "verdict", "detail")


def trial_id(result: TrialResult) -> str:
    k = f"-k{result.k}" if result.k is not None else ""
    return (f"{result.benchmark}-n{result.n}{k}-{result.algorithm}"
            f"-{result.variant}-s{result.seed}")


def write_trials_csv(results: Sequence[TrialResult], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIALS_COLUMNS)
        for r in results:
            writer.writerow([r.benchmark, r.n,
                             "" if r.k is None else r.k,
                             r.algorithm, r.variant, r.seed,
                             r.runtime_evals, r.runtime_iters,
                             int(r.censored)])


def write_trajectories_csv(results: Sequence[TrialResult], path) -> None:
    """One row per trajectory record, byte-identical to ``csv.writer``
    output (CRLF line ends; no field needs quoting), formatted directly
    because a run can hold hundreds of thousands of records.

    The work is done once per run of the trajectory: its text after ``t``
    is formatted once, and its rows are one join over its ticks. A trial
    is written in pieces of at most ``WRITE_TICKS`` rows, so the text held
    at once stays bounded however long the trial ran; a shorter trial is
    one write.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        for r in results:
            prefix = trial_id(r) + ","
            rows: list[str] = []
            held = 0  # the ticks in rows
            for rec, ts in r.trajectory.runs:
                _, pop_size, max_g1, z_count, d_pf, _, front_covered = rec
                text = (f",{pop_size},{'' if max_g1 is None else max_g1},"
                        f"{'' if z_count is None else z_count},"
                        f"{d_pf},{front_covered!r}\r\n")
                join = (text + prefix).join
                for lo in range(0, len(ts), WRITE_TICKS):
                    part = ts[lo:lo + WRITE_TICKS]
                    if held + len(part) > WRITE_TICKS:
                        fh.write("".join(rows))
                        rows.clear()
                        held = 0
                    rows.append(prefix + join(map(str, part)) + text)
                    held += len(part)
            fh.write("".join(rows))


def load_results(trials_path, trajectories_path=None, *,
                 interior_init: Optional[bool] = None) -> list[TrialResult]:
    """Rebuild TrialResult objects from the CSV pipeline.

    The trials file is authoritative for runtimes; trajectory rows are
    joined back by trial id and sorted stably by t when a trial's rows are
    out of order, and the ``final_*`` fields come from a trial's last
    record. Without trajectories they are -1, so that loaded trials
    compare equal when their rows are. The interior-initialization
    flag is not part of the file schema; every trial gets
    ``interior_init`` (None: unknown), which the caller takes from the
    run's configuration. A malformed row, a repeated trial id in the
    trials file or an unknown one in the trajectories file raises
    ``ValueError`` naming the file and line, and so do a ``censored``
    field other than 0 or 1 and runtimes that no run makes:
    ``runtime_iters < 0``, ``runtime_evals < 1`` or ``runtime_evals >
    runtime_iters + 1``. A trial whose rows are missing, do not start at
    t=0 or do not end at its ``runtime_iters``, as in a file cut before or
    after whole rows, or a last row without its line break, as in a file
    cut inside a row, raises ``ValueError`` naming the file and the
    trial.

    The trajectories file is read line by line in the unquoted form that
    ``write_trajectories_csv`` writes, and its rows are parsed once per
    run of equal records: a row whose text after ``t`` equals the
    previous row's of the same trial adds only its t to that row's run.
    """
    by_id: dict[str, TrialResult] = {}
    with open(trials_path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != TRIALS_COLUMNS:
            raise ValueError(
                f"{trials_path}: expected header {','.join(TRIALS_COLUMNS)}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(TRIALS_COLUMNS):
                    raise ValueError(f"expected {len(TRIALS_COLUMNS)} "
                                     f"fields, got {len(row)}")
                (benchmark, n, k, algorithm, variant, seed, runtime_evals,
                 runtime_iters, censored) = row
                if censored not in ("0", "1"):
                    raise ValueError(f"censored must be 0 or 1, got "
                                     f"{censored!r}")
                # a run of t iterations made t + 1 - idle evaluations
                evals, iters = int(runtime_evals), int(runtime_iters)
                if iters < 0 or not 1 <= evals <= iters + 1:
                    raise ValueError(
                        f"impossible runtimes: runtime_evals={evals} and "
                        f"runtime_iters={iters} need 0 <= runtime_iters and "
                        f"1 <= runtime_evals <= runtime_iters + 1")
                result = TrialResult(
                    benchmark=benchmark, n=int(n),
                    k=int(k) if k != "" else None,
                    algorithm=algorithm, variant=variant, seed=int(seed),
                    runtime_evals=evals, runtime_iters=iters,
                    censored=censored == "1",
                    final_pop_size=-1, final_covered=-1,
                    final_front_covered=-1.0,
                    interior_init=interior_init)
                tid = trial_id(result)
                if tid in by_id:
                    raise ValueError(f"repeated trial id {tid!r}")
            except ValueError as exc:
                raise ValueError(
                    f"{trials_path}:{reader.line_num}: {exc}") from None
            by_id[tid] = result
    if not by_id:
        raise ValueError(f"{trials_path}: no data rows")
    if trajectories_path is None:
        return list(by_id.values())
    # trial id -> (front size, runs); a run is (fields after t, ticks), and
    # the front size is computed once per trial
    by_tid: dict[str, tuple[int, list[tuple[tuple, list[int]]]]] = {}
    tid = text = None
    lineno, line = 1, ""
    with open(trajectories_path) as fh:
        if fh.readline().rstrip("\n") != ",".join(TRAJECTORY_COLUMNS):
            raise ValueError(f"{trajectories_path}: expected header "
                             f"{','.join(TRAJECTORY_COLUMNS)}")
        try:
            for lineno, line in enumerate(fh, start=2):
                if line == "\n":
                    continue
                row_tid, t, rest = line.split(",", 2)
                if row_tid != tid:
                    tid, text = row_tid, None
                    entry = by_tid.get(tid)
                    if entry is None:
                        ref = by_id.get(tid)
                        if ref is None:
                            raise ValueError(f"unknown trial id {tid!r}")
                        entry = by_tid[tid] = (BenchmarkSpec(
                            Kind(ref.benchmark), ref.n, ref.k).front_size, [])
                    front_size, runs = entry
                if rest != text:
                    pop_size, max_g1, z_count, d_pf, frac = rest.split(",")
                    front_covered = float(frac)
                    tail = (int(pop_size), int(max_g1) if max_g1 else None,
                            int(z_count) if z_count else None, int(d_pf),
                            round(front_covered * front_size), front_covered)
                    text = rest
                    if not runs or runs[-1][0] != tail:
                        runs.append((tail, []))
                    append = runs[-1][1].append
                append(int(t))
        except ValueError as exc:
            raise ValueError(f"{trajectories_path}:{lineno}: {exc} in row "
                             f"{line.rstrip(chr(10))!r}") from None
    # every row ends in a line break: a last row without one was cut
    # inside its fields, which may still parse
    if line and not line.endswith("\n"):
        raise ValueError(f"{trajectories_path}:{lineno}: the last row of "
                         f"trial {tid!r} has no line break; the file is "
                         "truncated")
    new = tuple.__new__
    loaded = []
    for tid, r in by_id.items():
        runs = by_tid.get(tid, (0, ()))[1]
        if not runs:
            raise ValueError(f"{trajectories_path}: no rows for trial "
                             f"{tid!r}; the file is truncated")
        if (all(ts == sorted(ts) for _, ts in runs)
                and all(a[1][-1] <= b[1][0] for a, b in zip(runs, runs[1:]))):
            trajectory = Trajectory(
                (new(TrajectoryRecord, (ts[0],) + tail), tuple(ts))
                for tail, ts in runs)
        else:
            trajectory = Trajectory.of(sorted(
                (new(TrajectoryRecord, (t,) + tail)
                 for tail, ts in runs for t in ts), key=itemgetter(0)))
        first_t = trajectory.runs[0][1][0]
        if first_t != 0:
            raise ValueError(
                f"{trajectories_path}: the rows of trial {tid!r} start at "
                f"t={first_t}, not at t=0; the file is truncated")
        last, ts = trajectory.runs[-1]
        if ts[-1] != r.runtime_iters:
            raise ValueError(
                f"{trajectories_path}: the rows of trial {tid!r} end at "
                f"t={ts[-1]}, but the trial ran to t={r.runtime_iters}; "
                "the file is truncated")
        loaded.append(replace(
            r, final_pop_size=last.pop_size, final_covered=last.covered,
            final_front_covered=last.front_covered, trajectory=trajectory))
    return loaded


def write_report_csv(reports: Sequence[HypothesisReport],
                     fits: Sequence[ScalingFit], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for rep in reports:
            for cell in rep.cells:
                writer.writerow([rep.hypothesis, cell.cell, cell.passes,
                                 cell.trials, f"{cell.frequency:.4f}",
                                 cell.required,
                                 "pass" if cell.ok else "fail", cell.detail])
            writer.writerow([rep.hypothesis, "<verdict>", "", "", "", "",
                             rep.verdict,
                             f"seed={rep.master_seed} config={rep.config_hash}"])
        for fit in fits:
            lo, hi = fit.exponent_ci
            writer.writerow([
                f"fit_scaling:{fit.model}", "exponent", "", "",
                f"{fit.exponent:.4f}", "", "",
                f"ci=[{lo:.4f},{hi:.4f}] constant={fit.constant:.6g} "
                "metric=evals"])


def summarize(reports: Sequence[HypothesisReport],
              fits: Sequence[ScalingFit] = ()) -> str:
    lines = []
    for rep in reports:
        lines.append(f"[{rep.verdict}] {rep.hypothesis} "
                     f"(threshold {rep.threshold}, seed {rep.master_seed}, "
                     f"config {rep.config_hash})")
        for cell in rep.cells:
            mark = "ok " if cell.ok else "FAIL"
            lines.append(f"    {mark} {cell.cell}: {cell.passes}/{cell.trials}"
                         f" (need {cell.required}) {cell.detail}")
        if rep.notes:
            lines.append(f"    note: {rep.notes}")
    for fit in fits:
        lo, hi = fit.exponent_ci
        lines.append(f"[FIT ] {fit.model} on evals: exponent "
                     f"{fit.exponent:.4f} (CI [{lo:.4f}, {hi:.4f}]), "
                     f"constant {fit.constant:.6g}")
        for n in fit.n_grid:
            q1, q3 = fit.per_n_iqr[n]
            lines.append(f"    n={n}: median {fit.per_n_median[n]:.0f} "
                         f"IQR [{q1:.0f}, {q3:.0f}]")
    return "\n".join(lines) + "\n"
