"""Run the benchmark and record its figures in ``BENCH_<label>.json``.

Run it from the root of the checkout to measure:

    python3 scripts/bench_record.py after --seeds 401 402 403 \\
        --workload cover-scaling --records bench-records/after
    python3 perfbench/compare.py bench-records/baseline bench-records/after

Each (seed, workload) pair is one run of ``perfbench/run.py``, at the
benchmark's own run length and without tracing, with its own ``--results``
directory, so repeated runs of a seed do not overwrite each other's
records. With ``--records DIR`` every record is also kept in DIR under a
name of its own, where ``perfbench/compare.py`` reads it, and the summary
covers every record in DIR: runs made by several calls, for example to
alternate two checkouts seed by seed, add up to one file.

``BENCH_<label>.json`` (in the current directory) holds, per workload and
trace mode, each metric's median and quartiles over the runs (taken by
``compare.py``'s own ``quartiles``), the rounds each run made, the
operations attempted and failed, and the result digest of every seed; and
the environment block the runs reported (commit, versions, CPU). A run
that reports problems (a failed operation or check, a missing metric) or a
digest that differs from the pinned one is kept in DIR but stops the
summary: the script names it and writes no BENCH file.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, "perfbench")
from compare import load, quartiles  # noqa: E402


def run_once(workload: str, seed: int) -> dict:
    """One run of the benchmark into a fresh results directory; its
    record."""
    results = tempfile.mkdtemp(prefix="bench-")
    try:
        cmd = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--results", results]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        paths = glob.glob(os.path.join(results, "*.json"))
        if proc.returncode != 0 or len(paths) != 1:
            sys.exit(f"error: {' '.join(cmd)} exited with {proc.returncode}"
                     f" and wrote {len(paths)} records")
        with open(paths[0]) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(results, ignore_errors=True)


def keep(record: dict, directory: str) -> None:
    """Store ``record`` in ``directory`` under a name no other run has."""
    os.makedirs(directory, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}"
            f"-trace{record['trace']}")
    k = 0
    while os.path.exists(os.path.join(directory, f"{stem}-run{k}.json")):
        k += 1
    with open(os.path.join(directory, f"{stem}-run{k}.json"), "w") as fh:
        json.dump(record, fh, indent=1)


def faults(record: dict) -> list[str]:
    """What makes ``record`` unfit for a BENCH file."""
    found = list(record["problems"])
    if record["digest_state"] == "MISMATCH":
        found.append(f"digest {record['digest']} differs from the pinned "
                     "one")
    return found


def summary(label: str, runs: dict) -> dict:
    """The BENCH file of ``runs``, as ``compare.load`` groups them."""
    workloads = {}
    for (workload, trace), recs in sorted(runs.items()):
        names = recs[0]["metrics"]
        metrics = {}
        for name in names:
            q1, median, q3 = quartiles([r["metrics"][name]["value"]
                                        for r in recs
                                        if name in r["metrics"]])
            metrics[name] = {"unit": names[name]["unit"], "q1": q1,
                             "median": median, "q3": q3}
        workloads[f"{workload} trace{trace}"] = {
            "runs": len(recs),
            "seconds": sorted({r["seconds"] for r in recs}),
            "seeds": [r["seed"] for r in recs],
            "rounds_per_run": [len(r["rounds"]) for r in recs],
            "attempted": sum(r["attempted"] for r in recs),
            "failed": sum(r["failed"] for r in recs),
            "digests": {str(r["seed"]): [r["digest"], r["digest_state"]]
                        for r in recs},
            "metrics": metrics,
        }
    records = [r for recs in runs.values() for r in recs]
    env = {k: v for k, v in records[0]["env"].items() if k != "seed"}
    shas = sorted({str(r["env"].get("git_sha")) for r in records})
    return {"label": label, "git_shas": shas, "env": env,
            "workloads": workloads}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("label", help="the file is BENCH_<label>.json")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, nargs="*", default=[],
                        help="one run per seed and workload")
    parser.add_argument("--records", help="directory that keeps every "
                        "record; the summary covers all records in it")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        sys.exit("error: run from the root of the checkout to measure")
    with open("BENCHMARK.json") as fh:
        workloads = args.workload or [w["name"]
                                      for w in json.load(fh)["workloads"]]
    runs: dict = {}
    for seed in args.seeds:
        for workload in workloads:
            record = run_once(workload, seed)
            print(f"{workload} seed {seed}: {len(record['rounds'])} rounds, "
                  f"failed {record['failed']}/{record['attempted']}, digest "
                  f"{record['digest']} ({record['digest_state']})",
                  flush=True)
            for fault in faults(record):
                print(f"FAILED {workload} seed {seed}: {fault}", flush=True)
            if args.records:
                keep(record, args.records)
            runs.setdefault((workload, record["trace"]), []).append(record)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    if args.records:
        runs = load(args.records)
    if not runs:
        sys.exit("error: no records to summarise")
    unfit = [f"{r['workload']} seed {r['seed']}: {fault}"
             for recs in runs.values() for r in recs for fault in faults(r)]
    if unfit:
        sys.exit("error: no BENCH file; these runs are unfit:\n  "
                 + "\n  ".join(unfit))
    with open(f"BENCH_{args.label}.json", "w") as fh:
        json.dump(summary(args.label, runs), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
