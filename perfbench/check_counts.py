"""Exact-count check: two traced runs with the same seed must agree exactly.

    python3 perfbench/check_counts.py --seed 1 [--workload edit-sg ...]

Compares the count metrics that later changes may cite as counts (op_count
deltas, VebMap calls and probes, check_variety calls, engine kinds) and
exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads

EXACT = [
    "engines.ops_per_edit_mean",
    "engines.ops_per_edit_max",
    "veb.calls_per_edit",
    "veb.find_prev_calls_per_edit",
    "veb.probes_per_edit",
    "algebra.check_variety_calls",
    *[f"engines.kind.{k}" for k in run.KINDS],
]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    ok = True
    for name in args.workload or workloads.WORKLOADS:
        try:
            first, _ = run.layers(name, args.seed)
            second, _ = run.layers(name, args.seed)
        except run.BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for metric in EXACT:
            same = first[metric] == second[metric]
            ok &= same
            print(f"{name:13s} {metric:32s} {first[metric]!r:>22} {second[metric]!r:>22}"
                  f"  {'same' if same else 'DIFFERENT'}")
    print("exact counts repeat" if ok else "exact counts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
