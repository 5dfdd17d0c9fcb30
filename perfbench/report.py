#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 30]

For each workload this prints the end-to-end metrics of the untraced run,
the per-layer metrics of the traced run, and the tracing overhead: the
relative gap between the traced `trace.ops_per_s` and the untraced
`ops_per_s`.  The runs go one after another.  Exits 1 if a run fails or
reports `correct: false`.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_workload(workload, seed, seconds, trace, env=None):
    """One run of run.py; returns its result object."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, env=dict(os.environ, **(env or {})),
        capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)
    correct = True
    for workload in WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, 0)
        traced = run_workload(workload, args.seed, args.seconds, 1)
        correct &= plain["correct"] and traced["correct"]
        print(f"== {workload}: {plain['attempted']} ops untraced, "
              f"{traced['attempted']} traced, failed {plain['failed']} + {traced['failed']}")
        for result in (plain, traced):
            for name, m in result["metrics"].items():
                print(f"  {name:32s} {m['value']!s:>24} {m['unit']}")
        base = plain["metrics"]["ops_per_s"]["value"]
        if base:
            overhead = 1 - traced["metrics"]["trace.ops_per_s"]["value"] / base
            print(f"  {'tracing overhead':32s} {overhead:>+24.3%} of ops_per_s")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
