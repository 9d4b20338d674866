"""The benchmark's three workloads and why each exists.

Each workload is one round of fixed work made from the master seed; a run
repeats the round until its time is up, so every round of a run computes
the same results and must give the same digest. All trials run in this
process (``jobs=1``): the benchmark does not measure Pool scaling.

cover-scaling
    GSEMO, original selection, on cocz and omm with n in {32, 64, 128} and
    trajectories off, then the lower-bound and scaling-exponent suites: the
    paper's n^2 ln n cover-time evidence (acceptance criteria 2 and 5)
    scaled down. It is the hot loop alone -- ``evaluate``, ``insert`` and
    the inlined selection and mutation, no ``measure`` -- so it shows the
    zero-flip skip and inlined ``evaluate`` (ROADMAP item 1) and the
    event-driven engine (item 2), and guards the one-loop refactor (item 4).
    It is also the workload on which cheaper trajectories (item 5) must show
    no change, because it records none.

trajectory-report
    The CLI as a user drives it, into a temporary directory: ``run`` GSEMO
    modified on cocz n in {64, 128} with the border checkpoint (criteria
    3 and 4), then ``report`` front-spread and border-distance; ``run``
    GSEMO original on ojzj n in {16, 20}, k=2, with trajectories, whose
    sampling period of 2 makes ``measure`` dominate. The ojzj runs stop at a
    fixed horizon of 2000 iterations (nearly all are censored): cover times
    there are heavy-tailed, and with full runs the work per seed, and so
    every time this workload reports, spread by 15-20% between seeds. It
    adds slot selection with idle draws, trajectory memory and CSV writes
    and reads, so it shows cheaper trajectories and telemetry (item 5),
    exact statistics (item 3) and the config codec (item 4).

suite-controls
    Criterion 7 (SEMO and GSEMO on ojzj n=12, k=2, interior start, cutoff
    10^6: SEMO runs are frozen, so nearly every offspring is rejected or
    replaces an equal member) and criterion 8 (modified-vs-original
    equivalence on cocz n=8 plus the off-by-one control) with reduced trial
    counts. It is the only workload on the ``step``/``run_offspring_budget``
    path: many set-up-heavy short runs plus long frozen runs. It shows the
    early stop of frozen runs (item 1) and the one-loop refactor (item 4),
    and is where the zero-flip skip must show no gain (SEMO makes no
    zero-flip copies).

Structural checks (SEMO covers nothing, the GSEMO control covers >= 90%,
the genuine equivalence test passes, the off-by-one control fails, the CLI
exits 0 or 1) count as operations; a failed check is a failed operation.
Calibrated verdicts (exponent and ratio windows, front spread, border
distance) are recorded but not gated: at benchmark scale they depend on the
seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile

from semolab import calibration as cal
from semolab import cli, experiments
from semolab.benchmarks import BenchmarkSpec, Kind
from semolab.experiments import ExperimentConfig

COVER_NS = (32, 64, 128)
COVER_TRIALS = 30
REPORT_COCZ_NS = (64, 128)
REPORT_COCZ_TRIALS = 40
REPORT_OJZJ_NS = (16, 20)
REPORT_OJZJ_TRIALS = 48
REPORT_OJZJ_HORIZON = 2000
SEMO_TRIALS = 3
CONTROL_TRIALS = 30
EQUIV_TRIALS = 3000


class Outcome:
    """What one round produced: digest input, checks and verdicts."""

    def __init__(self):
        self._digest = hashlib.sha256()
        self.checks: list[tuple[str, bool]] = []
        self.verdicts: dict[str, str] = {}
        self.trajectory_csv_bytes = 0

    def add(self, *items):
        for item in items:
            data = item if isinstance(item, bytes) else repr(item).encode()
            self._digest.update(data)

    def check(self, name: str, ok: bool):
        self.checks.append((name, bool(ok)))

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def _verdict(report) -> str:
    return f"{report.verdict}: " + "; ".join(
        f"{c.cell} {c.passes}/{c.trials}" for c in report.cells)


def cover_scaling(seed: int, out: Outcome, workdir: str):
    for bench in ("cocz", "omm"):
        config = ExperimentConfig(bench, "gsemo", "original", COVER_NS,
                                  COVER_TRIALS, seed,
                                  record_trajectories=False)
        results = experiments.run_grid(config)
        out.add(results)
        lower = experiments.check_lower_bound_runtime(results, config)
        scaling, fit = experiments.check_scaling_exponent(results, config)
        out.verdicts[f"{bench}.lower_bound"] = _verdict(lower)
        out.verdicts[f"{bench}.exponent"] = (
            f"{scaling.verdict}: {fit.exponent:.3f} "
            f"CI [{fit.exponent_ci[0]:.3f}, {fit.exponent_ci[1]:.3f}]")


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _run_and_report(out: Outcome, workdir: str, label: str,
                    run_args: list[str], suites: tuple[str, ...]):
    target = os.path.join(workdir, label)
    code, _ = _cli(["run", *run_args, "--out", target])
    out.check(f"{label}: cli run exits 0", code == 0)
    for name in ("trials.csv", "trajectories.csv"):
        with open(os.path.join(target, name), "rb") as fh:
            data = fh.read()
        out.add(data)
        if name == "trajectories.csv":
            out.trajectory_csv_bytes += len(data)
    if not suites:
        return
    report_args = ["report", "--out", target]
    for suite in suites:
        report_args += ["--suite", suite]
    code, summary = _cli(report_args)
    out.check(f"{label}: cli report exits 0 or 1", code in (0, 1))
    out.verdicts[label] = " | ".join(
        line.strip() for line in summary.splitlines()
        if line.startswith("[") or "ok " in line or "FAIL " in line)


def trajectory_report(seed: int, out: Outcome, workdir: str):
    tmpdir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
    try:
        cocz = ["--benchmark", "cocz", "--alg", "gsemo", "--variant",
                "modified", "--trials", str(REPORT_COCZ_TRIALS), "--seed",
                str(seed), "--checkpoint",
                f"border:n2_log:{cal.BORDER_DISTANCE_C}"]
        for n in REPORT_COCZ_NS:
            cocz += ["--n", str(n)]
        _run_and_report(out, tmpdir, "cocz-modified", cocz,
                        ("front-spread", "border-distance"))
        ojzj = ["--benchmark", "ojzj", "--k", "2", "--alg", "gsemo",
                "--variant", "original", "--trials", str(REPORT_OJZJ_TRIALS),
                "--seed", str(seed), "--max-iters", str(REPORT_OJZJ_HORIZON),
                "--record-trajectories", "on"]
        for n in REPORT_OJZJ_NS:
            ojzj += ["--n", str(n)]
        _run_and_report(out, tmpdir, "ojzj-trajectories", ojzj, ())
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def suite_controls(seed: int, out: Outcome, workdir: str):
    base = dict(ns=(12,), ks=(2,), max_iterations=10 ** 6,
                interior_init=True, record_trajectories=False,
                master_seed=seed)
    semo = experiments.run_grid(ExperimentConfig(
        "ojzj", "semo", "original", trials=SEMO_TRIALS, **base))
    control = experiments.run_grid(ExperimentConfig(
        "ojzj", "gsemo", "original", trials=CONTROL_TRIALS, **base))
    out.add(semo, control)
    covered = sum(not r.censored for r in control)
    out.check("semo covers 0 trials", all(r.censored for r in semo))
    out.check("gsemo control covers >= 90% of trials",
              covered >= cal.CONTROL_COVER_FREQUENCY * len(control))
    failure = experiments.check_semo_ojzj_failure(semo + control)
    out.verdicts["semo_ojzj_failure"] = _verdict(failure)

    spec = BenchmarkSpec(Kind.COCZ, 8)
    for label, offset, want_pass in (("genuine", 0, True),
                                     ("off-by-one control", -1, False)):
        report = experiments.check_equivalence_modified_original(
            spec, offspring_steps=30, trials_per_variant=EQUIV_TRIALS,
            master_seed=seed, slot_count_offset=offset)
        out.add(report.verdict, report.cells)
        out.check(f"equivalence {label} "
                  f"{'PASSes' if want_pass else 'FAILs'}",
                  report.passed == want_pass)
        out.verdicts[f"equivalence {label}"] = (
            f"{report.verdict}: {report.cells[0].detail}")


WORKLOADS = {
    "cover-scaling": cover_scaling,
    "trajectory-report": trajectory_report,
    "suite-controls": suite_controls,
}
