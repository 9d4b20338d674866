"""Compare two sets of benchmark result records.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py`` writes to ``--results`` (one
JSON file per run). Run it from the repository root: the metrics, their
direction and their bounds come from ``BENCHMARK.json``.

For every workload and metric it prints each side's median and quartiles,
the share of pairs the new side won (runs are paired by seed where both
sides ran the same seeds, else in order; ties count for neither side) and
a verdict under the benchmark's fixed bound:

worse       the new median is worse than the base median by more than the
            bound;
unresolved  the base runs spread (quartile distance over median) wider than
            the bound, unless every new run beats every base run;
improved    the new side won at least 90% of at least 10 pairs and the
            medians differ by more than the base runs' quartile distance
            (with fewer pairs such a result reads unresolved);
unchanged   otherwise.

Each workload's row block starts with the operations failed over those
attempted on each side: a gain does not count when more operations fail.

Per-layer metrics have no bound and get no verdict.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def load(directory: str) -> dict:
    """(workload, trace) -> list of records sorted by seed."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        runs.setdefault((record["workload"], record["trace"]),
                        []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base: list, new: list, name: str):
    by_seed = {r["seed"]: r for r in base}
    if all(r["seed"] in by_seed for r in new):
        matched = [(by_seed[r["seed"]], r) for r in new]
    else:
        matched = list(zip(base, new))
    return [(a["metrics"][name]["value"], b["metrics"][name]["value"])
            for a, b in matched
            if name in a["metrics"] and name in b["metrics"]]


def verdict(a_vals, b_vals, paired, better, bound):
    lower = better == "lower"

    def beats(x, y):
        return x < y if lower else x > y

    q1, med_a, q3 = quartiles(a_vals)
    med_b = statistics.median(b_vals)
    won = sum(beats(b, a) for a, b in paired) / len(paired) if paired else 0
    if bound is None:
        return won, "-"
    scale = abs(med_a) or 1.0
    worse_by = ((med_b - med_a) if lower else (med_a - med_b)) / scale
    all_better = all(beats(b, a) for b in b_vals for a in a_vals)
    if worse_by > bound:
        return won, "worse"
    if (q3 - q1) / scale > bound and not all_better:
        return won, "unresolved"
    if won >= 0.9 and worse_by < 0 and abs(med_b - med_a) > q3 - q1:
        return won, "improved" if len(paired) >= 10 else "unresolved"
    return won, "unchanged"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    metrics = [(m, 0) for m in spec["end_to_end"]] + [
        (m, 1) for m in spec["per_layer"]]
    base, new = load(argv[1]), load(argv[2])
    print(f"{'workload':18s} {'metric':42s} {'base q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s} {'won':>5s} verdict")
    any_worse = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        failed = [f"{sum(r['failed'] for r in side[key])}/"
                  f"{sum(r['attempted'] for r in side[key])}"
                  for side in (base, new)]
        print(f"{workload:18s} {'failed/attempted':42s} {failed[0]:>32s} "
              f"{failed[1]:>32s}")
        for m, layer in metrics:
            if layer != trace:
                continue
            name = m["name"]
            paired = pairs(base[key], new[key], name)
            if not paired:
                continue
            a_vals = [r["metrics"][name]["value"] for r in base[key]
                      if name in r["metrics"]]
            b_vals = [r["metrics"][name]["value"] for r in new[key]
                      if name in r["metrics"]]
            won, word = verdict(a_vals, b_vals, paired, m["better"],
                                m.get("bound"))
            qa = "/".join(f"{v:.4g}" for v in quartiles(a_vals))
            qb = "/".join(f"{v:.4g}" for v in quartiles(b_vals))
            print(f"{workload:18s} {name:42s} {qa:>32s} {qb:>32s} "
                  f"{won:5.2f} {word} ({m['unit']}, n={len(paired)})")
            any_worse = any_worse or word == "worse"
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
