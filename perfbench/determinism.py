#!/usr/bin/env python3
"""Determinism check of the per-layer counts.

    python3 perfbench/determinism.py [--seed 7]

Runs each workload's traced run twice with the same seed, once with
PYTHONHASHSEED=1 and once with PYTHONHASHSEED=2, and compares the counts
below.  A short `--seconds` is enough: the counts are totals over the
first few ops, which every run completes.  Only a count that repeats
here may back a count-based claim.  Exits 1 if any count differs.
"""
from __future__ import annotations

import argparse
import sys

from report import run_workload
from workloads import WORKLOADS

COUNTS = ("reduction.reducer_runs", "reduction.chain_steps", "reduction.q_terms",
          "reduction.coeff_bits_max", "numerics.quad_calls",
          "numerics.ode_rhs_evals", "numerics.zero_brackets")


def traced_counts(workload, seed, hash_seed):
    result = run_workload(workload, seed, 1, 1, env={"PYTHONHASHSEED": str(hash_seed)})
    return {name: result["metrics"][name]["value"] for name in COUNTS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    same = True
    for workload in WORKLOADS:
        first = traced_counts(workload, args.seed, 1)
        second = traced_counts(workload, args.seed, 2)
        for name in COUNTS:
            ok = first[name] == second[name]
            same &= ok
            print(f"{workload:16s} {name:28s} {first[name]!s:>10} {second[name]!s:>10} "
                  f"{'same' if ok else 'DIFFERENT'}")
    print("determinism check:", "passed" if same else "FAILED")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
