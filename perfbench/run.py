"""semolab benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root (it imports ``src/semolab`` from there):

    python3 perfbench/run.py --workload cover-scaling --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/compare.py perfbench/out/base perfbench/out/new

A run measures set-up time (fresh interpreters that import semolab and make
a first call), then repeats the workload's round (see ``workloads.py``) in
this process until ``--seconds`` are used up. ``--trace 0`` reports the
end-to-end metrics named in ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, the tracing
overhead and the per-call replay of ``micro.py``.

Every time is scaled to a reference speed (see ``speed.py``): the host's
speed drifts by up to 2x within seconds.

Every round of a run repeats the same inputs, so all rounds must give the
same result digest, and the digest must equal the one recorded for the
workload and seed in ``digests.json`` when there is one. A digest mismatch,
a failed structural check or an exception that escapes a trial counts as a
failed operation. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record with
the environment, verdicts and per-round figures goes to ``--results``.
``--update-digests`` records the digest instead of checking it, for a
change that declares a new random-number stream.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_SAMPLES = 3
# the child times the reference loop itself: it may run on the other core
SETUP_SNIPPET = """\
import time
from speed import reference_loop
t0 = time.perf_counter_ns(); reference_loop(); before = time.perf_counter_ns() - t0
import semolab, semolab.cli
from semolab import AlgorithmSpec, BenchmarkSpec, Kind, run_until_cover
run_until_cover(BenchmarkSpec(Kind.COCZ, 8), AlgorithmSpec.gsemo(), 0)
t0 = time.perf_counter_ns(); reference_loop(); after = time.perf_counter_ns() - t0
print(before, after)
"""


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open(SPEC) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {SPEC}: {exc}")


def import_semolab():
    """Import the package from ./src, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "semolab", "__init__.py")):
        fail("src/semolab not found; run from the repository root")
    sys.path.insert(0, SRC)
    import semolab
    if not os.path.realpath(semolab.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        fail(f"imported semolab from {semolab.__file__}, not from {SRC}")
    return semolab


def git_sha(root: str):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import semolab
    return {"git_sha": git_sha(ROOT), "semolab": semolab.__version__,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu_model": cpu_model(), "platform": platform.platform(),
            "seed": seed}


def measure_setup() -> list[float]:
    """Seconds, at reference speed, of fresh interpreters importing semolab
    and making a first call."""
    import speed
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)))
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                              cwd=ROOT,
                              check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter_ns() - t0
        before, after = map(int, proc.stdout.split())
        times.append((wall - before - after) * 2 * speed.REFERENCE_NOMINAL_NS
                     / (before + after) / 1e9)
    return times


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics. Trial times form one cluster per grid cell, and a
    single order statistic jumps between clusters from seed to seed."""
    import numpy as np
    from scipy.stats import beta
    data = np.sort(np.asarray(values, dtype=float))
    n = len(data)
    edges = beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1 - q))
    return float(np.dot(np.diff(edges), data))


def run_round(workload: str, seed: int, clock, traced: bool) -> dict:
    import tracing
    from workloads import WORKLOADS, Outcome
    probe = clock.probe
    out = Outcome()
    tracer = tracing.Tracer() if traced else None
    first = len(clock.bounds)
    started, raised = clock.started, clock.raised
    error = None
    if tracer:
        tracer.install()
    probe.start(periodic=not traced)
    w0, _ = probe.now()
    try:
        WORKLOADS[workload](seed, out, OUT)
    except Exception:
        error = traceback.format_exc()
    finally:
        w1, _ = probe.now()
        probe.stop()
        if tracer:
            tracer.uninstall()
    trial_ms, cpu_ns = [], 0.0
    for (t0, t1), cpu in zip(clock.bounds[first:], clock.cpu_ns[first:]):
        scaled = probe.scaled(t0, t1)
        trial_ms.append(scaled / 1e6)
        cpu_ns += cpu * scaled / max(t1 - t0, 1)
    wall_s = probe.scaled(w0, w1) / 1e9
    rnd = {"traced": traced, "wall_s": wall_s,
           "raw_wall_s": (w1 - w0) / 1e9, "speed": wall_s * 1e9 / (w1 - w0),
           "trials": len(trial_ms), "trial_ms": trial_ms, "cpu_ns": cpu_ns,
           "iterations": sum(clock.iterations[first:]),
           "trials_started": clock.started - started,
           "trials_raised": clock.raised - raised,
           "digest": out.digest, "checks": out.checks,
           "verdicts": out.verdicts, "error": error}
    if tracer:
        rnd["layers"] = tracing.layer_metrics(tracer, w1 - w0)
        rnd["layers"]["experiments.trajectory_csv_bytes"] = (
            out.trajectory_csv_bytes)
        rnd["tracer"] = tracer
    return rnd


def end_to_end(rounds: list[dict], setup: list[float]) -> dict[str, float]:
    trial_ms = [ms for r in rounds for ms in r["trial_ms"]]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "trials_per_s": statistics.median(r["trials"] / r["wall_s"]
                                          for r in rounds),
        "ns_per_iter": statistics.median(r["cpu_ns"] / r["iterations"]
                                         for r in rounds),
        "trial_p50_ms": quantile(trial_ms, 0.5),
        "trial_p90_ms": quantile(trial_ms, 0.9),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(rounds: list[dict], seed: int, workload: str) -> dict:
    import micro
    import tracing
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in names}
    metrics["trace.overhead_share"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1)
    metrics.update(micro.replay(traced[0]["tracer"].streams))
    tracing.dump_spans(traced[-1]["tracer"],
                       os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl"))
    return metrics


def tally(rounds: list[dict], recorded) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over trials, checks and digests."""
    attempted = failed = 0
    problems = []
    for i, r in enumerate(rounds):
        attempted += r["trials_started"] + len(r["checks"])
        if r["error"]:
            failed += 1
            problems.append(f"round {i}: {r['error'].strip().splitlines()[-1]}")
        for name, ok in r["checks"]:
            if not ok:
                failed += 1
                problems.append(f"round {i}: check failed: {name}")
    reference = rounds[0]["digest"]
    for i, r in enumerate(rounds[1:], 1):
        attempted += 1
        if r["digest"] != reference:
            failed += 1
            problems.append(f"round {i}: digest {r['digest'][:16]} differs "
                            f"from round 0 {reference[:16]}")
    if recorded is not None:
        attempted += 1
        if recorded != reference:
            failed += 1
            problems.append(f"digest {reference[:16]} differs from the "
                            f"recorded {recorded[:16]}")
    return max(attempted, failed, 1), failed, problems


def read_digests() -> dict:
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_one(args, spec) -> int:
    import_semolab()
    sys.path.insert(0, HERE)
    import speed
    import tracing
    os.makedirs(OUT, exist_ok=True)
    env = environment(args.seed)
    setup = measure_setup()

    clock = tracing.TrialClock(speed.SpeedProbe())
    clock.install()
    rounds: list[dict] = []
    begin = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(args.workload, args.seed, clock, traced))
            if rounds[-1]["error"]:
                break
            kinds = {r["traced"] for r in rounds}
            if args.trace and len(kinds) < 2:
                continue
            # stop when a further round of the next kind would overrun
            nxt = bool(args.trace) and len(rounds) % 2 == 1
            last = [r["raw_wall_s"] for r in rounds if r["traced"] == nxt][-1]
            if time.perf_counter() - begin + last > args.seconds:
                break
    finally:
        clock.uninstall()

    digests = read_digests()
    recorded = digests.get(args.workload, {}).get(str(args.seed))
    if args.update_digests:
        digests.setdefault(args.workload, {})[str(args.seed)] = (
            rounds[0]["digest"])
        with open(DIGESTS, "w") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        recorded = None
    attempted, failed, problems = tally(rounds, recorded)

    ok_rounds = [r for r in rounds if not r["error"]]
    if args.trace:
        wanted = spec["per_layer"]
        values = (per_layer(ok_rounds, args.seed, args.workload)
                  if len({r["traced"] for r in ok_rounds}) == 2 else {})
    else:
        wanted = spec["end_to_end"]
        values = end_to_end([r for r in ok_rounds if not r["traced"]],
                            setup) if ok_rounds else {}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}

    digest_state = ("updated" if args.update_digests
                    else "unrecorded" if recorded is None
                    else "match" if recorded == rounds[0]["digest"]
                    else "MISMATCH")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  trials/round {rounds[0]['trials']}")
    print(f"digest {rounds[0]['digest']} ({digest_state})")
    for name, verdict in rounds[0]["verdicts"].items():
        print(f"verdict {name}: {verdict}")
    for problem in problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "setup_samples_s": setup, "digest": rounds[0]["digest"],
              "digest_state": digest_state, "problems": problems,
              "verdicts": rounds[0]["verdicts"],
              "rounds": [{k: r[k] for k in (
                  "traced", "wall_s", "raw_wall_s", "speed", "trials",
                  "iterations", "trials_started", "trials_raised", "digest")}
                  for r in rounds],
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "metrics": metrics}
    os.makedirs(args.results, exist_ok=True)
    with open(os.path.join(args.results, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own process; one table of every metric."""
    import_semolab()
    rows = []
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--results",
               args.results]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        if proc.returncode != 0 or not lines:
            print(f"[{workload}] exited with {proc.returncode}")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct &= result["correct"]
        rows.append((workload, result))
    print()
    print(f"{'workload':20s} {'metric':44s} {'value':>14s} unit")
    for workload, result in rows:
        print(f"{workload:20s} {'failed_frac':44s} "
              f"{result['failed'] / result['attempted']:>14.6g} "
              f"({result['failed']}/{result['attempted']}, "
              f"correct={result['correct']})")
        for name, m in result["metrics"].items():
            print(f"{workload:20s} {name:44s} {m['value']:>14.6g} "
                  f"{m['unit']}")
    return 0 if all_correct else 1


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*(w["name"] for w in spec["workloads"]),
                                 "all"))
    parser.add_argument("--seed", type=int, default=20250801,
                        help="master seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement time; at least one round runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(OUT, "results"),
                        help="directory for the full result records")
    parser.add_argument("--update-digests", action="store_true",
                        help="record this run's digest in digests.json")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
