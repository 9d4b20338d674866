"""Command-line front end: run experiment grids, emit CSV data, run the
oracle cross-check, evaluate reports, and print bound values.

Exit status contract: 0 = success, 1 = a verdict failed (oracle mismatch
or a FAIL suite), 2 = usage or configuration error. Censored trials are a
normal result, never an error.

Configuration is a flat key=value text file (same keys as the long flags,
``#`` comments allowed); flags override file values, which override the
run defaults. ``ExperimentConfig.to_kv``/``from_kv`` own the text form of
the experiment keys. Every run writes ``resolved-config.txt`` (the
``to_kv`` keys, ``jobs``, ``config_hash`` and ``calibration_version``);
``run --config`` on it reproduces the run byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import calibration as cal
from .benchmarks import (BRUTE_FORCE_MAX_N, BenchmarkSpec, Kind,
                         analytic_front, brute_force_front)
from .bounds import (GeometricPhaseSet, chernoff_lower_tail,
                     harmonic_sum_bounds, witt_lower_tail, witt_upper_tail)
from .engine import ALGORITHMS, VARIANTS
from .experiments import (CONFIG_KEYS, ExperimentConfig,
                          check_border_distance,
                          check_equivalence_modified_original,
                          check_front_spread, check_lower_bound_runtime,
                          check_scaling_exponent, check_semo_ojzj_failure,
                          config_hash, load_results, run_grid, summarize,
                          write_report_csv, write_trajectories_csv,
                          write_trials_csv)

TRIALS_FILE = "trials.csv"
TRAJECTORIES_FILE = "trajectories.csv"
REPORT_FILE = "report.csv"
SUMMARY_FILE = "summary.txt"
RESOLVED_CONFIG_FILE = "resolved-config.txt"

BENCHMARKS = [kind.value for kind in Kind]
SUITES = ("front-spread", "border-distance", "lower-bound", "scaling",
          "semo-failure", "equivalence")


class CliError(Exception):
    """Usage/configuration problem; maps to exit status 2."""


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise CliError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip().replace("-", "_")
        if key in values:
            raise CliError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


# run settings that a config file or a flag may give but ExperimentConfig
# does not hold: worker processes and the output directory
_RUN_KEYS = ("jobs", "out")
_RUN_DEFAULTS = {"alg": "gsemo", "variant": "original", "trials": "10",
                 "seed": "0", "jobs": "1"}


def _flag_values(args) -> dict[str, str]:
    """The run flags that were given, as config text (each flag's dest is
    its config key; repeated flags join into one list value)."""
    values = {}
    for key in (*CONFIG_KEYS, *_RUN_KEYS):
        value = getattr(args, key)
        if isinstance(value, list):
            value = (";" if key == "checkpoint" else ",").join(map(str, value))
        if value is not None:
            values[key] = str(value)
    return values


def _resolve_run_settings(args) -> tuple[ExperimentConfig, int, str]:
    file_values = _parse_config_file(args.config) if args.config else {}
    values = {**_RUN_DEFAULTS, **file_values, **_flag_values(args)}
    jobs_text, out = (values.pop(key, None) for key in _RUN_KEYS)
    try:
        jobs = int(jobs_text)
    except ValueError:
        raise CliError(f"jobs must be an integer, got {jobs_text!r}") from None
    config = ExperimentConfig.from_kv(values)
    if out is None:
        raise CliError("an output directory is required (--out)")
    return config, jobs, out


def _load_resolved_config(out_dir: str) -> ExperimentConfig:
    path = os.path.join(out_dir, RESOLVED_CONFIG_FILE)
    if not os.path.exists(path):
        raise CliError(f"missing {path}; expected the resolved configuration "
                       "written by the run command")
    values = _parse_config_file(path)
    values.pop("jobs", None)
    try:
        return ExperimentConfig.from_kv(values)
    except ValueError as exc:
        raise CliError(f"{path}: invalid resolved configuration: {exc}") from None


def cmd_run(args) -> int:
    config, jobs, out = _resolve_run_settings(args)
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return 2
    results = run_grid(config, jobs=jobs)
    write_trials_csv(results, os.path.join(out, TRIALS_FILE))
    if config.record_trajectories:
        write_trajectories_csv(results, os.path.join(out, TRAJECTORIES_FILE))
    resolved = {**config.to_kv(), "jobs": str(jobs),
                "config_hash": config_hash(config),
                "calibration_version": cal.CALIBRATION_VERSION}
    with open(os.path.join(out, RESOLVED_CONFIG_FILE), "w") as fh:
        fh.write("".join(f"{key}={value}\n"
                         for key, value in resolved.items()))
    censored = sum(r.censored for r in results)
    print(f"{len(results)} trials across {len(config.cells())} cells "
          f"({censored} censored) -> {out}")
    return 0


def cmd_oracle(args) -> int:
    try:
        spec = BenchmarkSpec(Kind(args.benchmark), args.n, args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if spec.n > BRUTE_FORCE_MAX_N:
        print(f"error: oracle enumerates 2^n points and refuses n > "
              f"{BRUTE_FORCE_MAX_N}", file=sys.stderr)
        return 2
    closed = analytic_front(spec)
    brute = brute_force_front(spec)
    print(f"closed-form front ({len(closed)} points): "
          + " ".join(f"({p.f1},{p.f2})" for p in closed))
    print(f"brute-force front ({len(brute)} points): "
          + " ".join(f"({p.f1},{p.f2})" for p in brute))
    if closed.points == brute.points:
        print("MATCH")
        return 0
    print("MISMATCH")
    return 1


def _auto_suites(config: ExperimentConfig) -> list[str]:
    suites = []
    if config.variant == "modified" and config.record_trajectories:
        suites += ["front-spread", "border-distance"]
    if config.variant == "original" and len(config.ns) >= 3:
        suites += ["lower-bound", "scaling"]
    if (config.benchmark == "ojzj" and config.algorithm == "semo"
            and config.interior_init):
        suites.append("semo-failure")
    return suites


def cmd_report(args) -> int:
    out = args.out
    config = _load_resolved_config(out)
    trials_path = os.path.join(out, TRIALS_FILE)
    if not os.path.exists(trials_path):
        raise CliError(f"missing {trials_path}; run the grid first")
    traj_path = os.path.join(out, TRAJECTORIES_FILE)
    # the resolved config's interior flag covers every trial of the run
    results = load_results(trials_path,
                           traj_path if os.path.exists(traj_path) else None,
                           interior_init=config.interior_init)
    suites = list(args.suite or [])
    if not suites:
        suites = _auto_suites(config)
        if not suites:
            raise CliError("no applicable suites for this configuration; "
                           "select explicitly with --suite")
    reports = []
    fits = []
    for suite in suites:
        if suite == "front-spread":
            reports.append(check_front_spread(results, config))
        elif suite == "border-distance":
            reports.append(check_border_distance(results, config))
        elif suite == "lower-bound":
            reports.append(check_lower_bound_runtime(results, config))
        elif suite == "scaling":
            report, fit = check_scaling_exponent(results, config)
            reports.append(report)
            fits.append(fit)
        elif suite == "semo-failure":
            reports.append(check_semo_ojzj_failure(results, config=config))
        elif suite == "equivalence":
            bspec = BenchmarkSpec(Kind(args.equiv_benchmark), args.equiv_n,
                                  args.equiv_k)
            reports.append(check_equivalence_modified_original(
                bspec, algorithm=config.algorithm,
                offspring_steps=args.equiv_steps,
                trials_per_variant=args.equiv_trials,
                master_seed=config.master_seed,
                slot_count_offset=args.equiv_offset))
        else:
            raise CliError(f"unknown suite {suite!r}")
    write_report_csv(reports, fits, os.path.join(out, REPORT_FILE))
    summary = summarize(reports, fits)
    with open(os.path.join(out, SUMMARY_FILE), "w") as fh:
        fh.write(summary)
    print(summary, end="")
    return 0 if all(r.passed for r in reports) else 1


def _parse_probs(text: str) -> GeometricPhaseSet:
    try:
        return GeometricPhaseSet.of(float(p) for p in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad phase list {text!r}: {exc}") from None


_SANDWICH_FAMILIES = {
    "inv": lambda c: (lambda x: c / x),
    "invsqrt": lambda c: (lambda x: c / x ** 0.5),
    "const": lambda c: (lambda x: c),
}


def cmd_bounds(args) -> int:
    if args.tool == "witt":
        phases = _parse_probs(args.phases)
        print(f"expectation={phases.expectation:.10g} s={phases.s:.10g} "
              f"p_min={phases.p_min:.10g}")
        print(f"upper_tail={witt_upper_tail(phases, args.lam):.10g}")
        print(f"lower_tail={witt_lower_tail(phases, args.lam):.10g}")
    elif args.tool == "chernoff":
        try:
            value = chernoff_lower_tail(args.mean, args.delta)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        print(f"lower_tail={value:.10g}")
    else:
        family = _SANDWICH_FAMILIES[args.family](args.coeff)
        try:
            lower, upper = harmonic_sum_bounds(family, args.alpha, args.beta)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        print(f"lower={lower:.10g} upper={upper:.10g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semolab",
        description="Run and analyze evolutionary bi-objective benchmark "
                    "experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment grid")
    run_p.add_argument("--config", help="key=value configuration file")
    run_p.add_argument("--benchmark", choices=BENCHMARKS)
    run_p.add_argument("--n", action="append", type=int,
                       help="problem size (repeatable)")
    run_p.add_argument("--k", action="append", type=int,
                       help="ojzj gap size (repeatable)")
    run_p.add_argument("--alg", choices=list(ALGORITHMS))
    run_p.add_argument("--variant", choices=list(VARIANTS))
    run_p.add_argument("--trials", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--max-iters", dest="max_iters", type=int)
    run_p.add_argument("--interior-init", dest="interior_init",
                       choices=["on", "off"])
    run_p.add_argument("--record-trajectories", dest="record_trajectories",
                       choices=["on", "off"])
    run_p.add_argument("--checkpoint", action="append",
                       help="name:shape:coefficient (repeatable)")
    run_p.add_argument("--jobs", type=int)
    run_p.add_argument("--out", help="output directory")
    run_p.set_defaults(func=cmd_run)

    oracle_p = sub.add_parser("oracle",
                              help="cross-check closed-form vs brute-force front")
    oracle_p.add_argument("--benchmark", required=True,
                          choices=BENCHMARKS)
    oracle_p.add_argument("--n", type=int, required=True)
    oracle_p.add_argument("--k", type=int)
    oracle_p.set_defaults(func=cmd_oracle)

    report_p = sub.add_parser("report", help="evaluate hypothesis suites")
    report_p.add_argument("--out", required=True,
                          help="directory with trials.csv and friends")
    report_p.add_argument("--suite", action="append", choices=list(SUITES),
                          help="suite to run (repeatable; default: auto)")
    report_p.add_argument("--equiv-benchmark", default="cocz",
                          choices=BENCHMARKS)
    report_p.add_argument("--equiv-n", type=int, default=8)
    report_p.add_argument("--equiv-k", type=int, default=None)
    report_p.add_argument("--equiv-steps", type=int, default=30)
    report_p.add_argument("--equiv-trials", type=int, default=10_000)
    report_p.add_argument("--equiv-offset", type=int, default=0)
    report_p.set_defaults(func=cmd_report)

    bounds_p = sub.add_parser("bounds", help="print tail-bound values")
    bounds_sub = bounds_p.add_subparsers(dest="tool", required=True)
    witt_p = bounds_sub.add_parser("witt")
    witt_p.add_argument("--phases", required=True,
                        help="comma-separated success probabilities")
    witt_p.add_argument("--lam", type=float, required=True)
    chern_p = bounds_sub.add_parser("chernoff")
    chern_p.add_argument("--mean", type=float, required=True)
    chern_p.add_argument("--delta", type=float, required=True)
    sand_p = bounds_sub.add_parser("sandwich")
    sand_p.add_argument("--family", choices=list(_SANDWICH_FAMILIES),
                        default="inv")
    sand_p.add_argument("--coeff", type=float, default=1.0)
    sand_p.add_argument("--alpha", type=float, required=True)
    sand_p.add_argument("--beta", type=float, required=True)
    bounds_p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
