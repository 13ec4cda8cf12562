#!/usr/bin/env python3
"""Compare two result sets of the benchmark, metric by metric.

A result set is one or more files holding the standard output of
benchmark runs (one run after another, as `>>` appends them). Every
line that is a run record (a JSON object with a "workload" key) counts;
traced runs are skipped. Usage:

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

For each workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs NEW won (pairs match runs by seed, else by
order; ties count for neither side), and a verdict:

  improved    NEW wins at least 9/10 of the pairs and the medians differ,
              in NEW's favour, by more than BASE's interquartile spread;
  unresolved  the run-to-run spread (interquartile range over median, on
              either side) is wider than the metric's bound, unless every
              NEW run beats every BASE run;
  regressed   NEW's median is worse than BASE's by more than the bound
              (a share of BASE's median);
  no worse    otherwise.

Bounds and better-directions come from BENCHMARK.json. The exit code is
1 if any metric regressed or NEW failed more ops than BASE, else 0.
"""

import argparse
import json
import os
import statistics
import sys


def load(paths):
    """Run records by workload, in file order."""
    runs = {}
    for path in paths:
        files = [path]
        if os.path.isdir(path):
            files = sorted(os.path.join(path, f) for f in os.listdir(path))
        for name in files:
            with open(name) as f:
                for line in f:
                    line = line.strip()
                    if not line.startswith("{"):
                        continue
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if "workload" in rec and not rec.get("trace"):
                        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, new, metric):
    """(base, new) value pairs: by seed where both sides ran it, else by order."""
    by_seed = {r["seed"]: r for r in base}
    matched = [(by_seed[r["seed"]], r) for r in new if r["seed"] in by_seed]
    if len(matched) < min(len(base), len(new)):
        matched = list(zip(base, new))
    return [(b["metrics"][metric]["value"], n["metrics"][metric]["value"]) for b, n in matched]


def verdict(base, new, pair_values, lower_is_better, bound):
    better = (lambda a, b: a < b) if lower_is_better else (lambda a, b: a > b)
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    wins = sum(1 for b, n in pair_values if better(n, b))
    win_share = wins / len(pair_values) if pair_values else 0.0
    if win_share >= 0.9 and better(nmed, bmed) and abs(nmed - bmed) > bq3 - bq1:
        return "improved", win_share
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (nq3 - nq1) / nmed if nmed else 0.0)
    all_better = all(better(n, b) for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved", win_share
    worse_by = (nmed - bmed) / bmed if lower_is_better else (bmed - nmed) / bmed
    if worse_by > bound:
        return "regressed", win_share
    return "no worse", win_share


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="BASE result file or directory")
    parser.add_argument("new", help="NEW result file or directory")
    parser.add_argument(
        "--benchmark",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"),
    )
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    base, new = load([args.base]), load([args.new])
    bad = False
    header = f"{'workload':<14} {'metric':<21} {'base q1/med/q3':>30} {'new q1/med/q3':>30} {'won':>5}  verdict"
    print(header)
    print("-" * len(header))
    for w in bench["workloads"]:
        name = w["name"]
        b_runs, n_runs = base.get(name, []), new.get(name, [])
        if not b_runs or not n_runs:
            print(f"{name:<14} (no runs on {'BASE' if not b_runs else 'NEW'} side)")
            continue
        for m in bench["end_to_end"]:
            metric = m["name"]
            b = [r["metrics"][metric]["value"] for r in b_runs]
            n = [r["metrics"][metric]["value"] for r in n_runs]
            v, won = verdict(b, n, pairs(b_runs, n_runs, metric), m["better"] == "lower", m["bound"])
            bad |= v == "regressed"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{name:<14} {metric:<21} {fmt(quartiles(b)):>30} {fmt(quartiles(n)):>30} {won:>5.0%}  {v}")
        b_failed = sum(r["failed"] for r in b_runs)
        n_failed = sum(r["failed"] for r in n_runs)
        print(
            f"{name:<14} {'ops failed':<21} {b_failed:>30} {n_failed:>30}"
            f"  runs {len(b_runs)} vs {len(n_runs)}"
        )
        bad |= n_failed > b_failed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
