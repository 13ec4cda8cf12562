#!/usr/bin/env python3
"""Check the benchmark's exact-repeat counters against their pinned values.

Runs each perfbench workload traced at seed 7 for 0.01 s (three rounds,
the minimum) and compares the per-layer counters that are a pure function
of the seed with `tests/perfbench_counters.json`. Timing metrics are not
compared: a shared machine cannot hold a noise band. Usage:

    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    python3 tests/perfbench_counters.py perfbench/target/release/perfbench

`--update` rewrites the pinned file from the runs instead of comparing;
use it only for a change that means to move a counter, and say why. The
exit code is 1 if any counter differs from its pinned value.
"""

import argparse
import json
import os
import subprocess
import sys

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perfbench_counters.json")
WORKLOADS = ("serve-tenants", "dom-session", "lir-pipeline")
ARGS = ["--seed", "7", "--seconds", "0.01", "--trace", "1"]

# The exact-repeat counters: work the program does per op, not how fast.
COUNTERS = (
    "gates.transitions_per_op",
    "lir.instret_per_op",
    "lir.fused_ops_per_op",
    "vmem.tlb_hit_rate",
    "vmem.tlb_misses_per_op",
    "vmem.tlb_flushes_per_op",
    "vmem.demand_pages_per_op",
    "minijs.elem_accesses_per_op",
    "minijs.ic_misses_per_op",
    "pkalloc.trusted_allocs_per_op",
    "pkalloc.untrusted_allocs_per_op",
    "tenant.evictions_per_op",
    "tenant.pages_retagged_per_op",
    "tenant.bind_retries_per_op",
)


def run(binary, workload):
    """The counters of one traced run of `workload`."""
    out = subprocess.run(
        [binary, "--workload", workload, *ARGS], check=True, capture_output=True, text=True
    ).stdout
    result = json.loads([line for line in out.splitlines() if line.strip()][-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: the run was not correct: {result['failed']} failed ops")
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binary", help="path to the built perfbench binary")
    parser.add_argument("--update", action="store_true", help="rewrite the pinned file")
    args = parser.parse_args()

    measured = {w: run(args.binary, w) for w in WORKLOADS}
    if args.update:
        with open(PINNED, "w") as f:
            json.dump({"args": " ".join(ARGS), "counters": measured}, f, indent=2)
            f.write("\n")
        print(f"wrote {PINNED}")
        return 0

    with open(PINNED) as f:
        pinned = json.load(f)["counters"]
    bad = 0
    for w in WORKLOADS:
        for name in COUNTERS:
            want, got = pinned[w][name], measured[w][name]
            if want != got:
                bad += 1
                print(f"{w} {name}: pinned {want}, measured {got}")
    print(f"{len(WORKLOADS) * len(COUNTERS) - bad} counters equal, {bad} differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
