#!/usr/bin/env python3
"""Benchmark runner: one workload, one seed, one process.

    python3 perfbench/run.py --workload deep_chain --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` reports the end-to-end
metrics of BENCHMARK.json, `--trace 1` the per-layer ones.  The workloads
are closed loops: the next op starts when the previous one returned.

Timings are reported in seconds of the reference host; see `HostProbe`.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 7      # cold set-ups per run, each in a fresh interpreter
TAIL_BEYOND = 10    # op_tail_s: highest percentile with this many ops beyond it
LAYERS = ("cli", "reduction", "triangle", "numerics")
# spans the workloads open around their calls into the package; the wrapped
# internal entry points (Reducer.run, quad, ...) nest inside these
OUTER_SPANS = ("cli.parse_one_form", "reduction.francoise_chain", "triangle.d4_chain",
               "triangle.d4_fuchs_ode", "triangle.d4_local_exponents",
               "numerics.shooting_oracle", "numerics.count_zeros")
PACKAGE_MODULES = ("algebra", "upoly", "reduction", "triangle", "numerics", "cli")
CHAIN_STATS = ("reduction.chain_steps", "reduction.q_terms", "reduction.phi_degree_max",
               "reduction.pole_depth_max", "reduction.coeff_bits_max")


class HostProbe:
    """Host speed, read from a fixed pure-Python Fraction loop.

    On a shared two-vCPU VM the host switches, within seconds, between an
    uncontended state and states where the same code runs 1.2 to 2 times
    slower; over a run of half a minute that alone moves a median by
    15-25 %.  The probe (best of five) is timed between consecutive timed
    intervals, outside them.  `scale` converts a measured interval to
    seconds of the reference host, on which the probe takes REFERENCE_S,
    using the mean of the probes on either side.  REFERENCE_S is the
    probe's time on the uncontended measuring VM (perfbench/README.md), so
    there the scaling only removes contention; on another machine it also
    converts to that VM's speed.  The probe does not use the package.

    Contention slows the probe more than it slows an op: over windows of
    12 s, op time grew as the probe time to the power 0.65 to 0.8 on every
    workload (perfbench/README.md).  Dividing by the probe itself made a
    contended run read up to 28 % fast; EXPONENT corrects for that.
    """

    REFERENCE_S = 1.60e-3
    EXPONENT = 0.75

    def __init__(self):
        self.times = []

    def mark(self):
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            s = Fraction(0)
            for k in range(1, 400):
                s += Fraction(k, k + 7) * Fraction(3, k + 1)
            best = min(best, time.perf_counter() - t0)
        self.times.append(best)
        return len(self.times) - 1

    def scale(self, seconds, before, after):
        """`seconds` measured between marks `before` and `after`."""
        probe = 0.5 * (self.times[before] + self.times[after])
        return seconds * (self.REFERENCE_S / probe) ** self.EXPONENT


def pin_threads():
    # two cores: keep BLAS and OpenMP pools from competing with the op
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_package():
    """Import the package afresh, so each set-up repetition starts cold."""
    for name in [n for n in sys.modules if n == "melnikov" or n.startswith("melnikov.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"melnikov.{m}")
                              for m in PACKAGE_MODULES})


def chain_stats(chains):
    """Exact sizes read from ChainResult.steps; None where a field is gone."""
    try:
        steps = [s for c in chains for s in c.steps]
        coeffs = [c for s in steps for e in (s.q, s.exact)
                  for p in e.entries.values() for c in p.terms.values()]
        return dict(zip(CHAIN_STATS, (
            len(steps),
            sum(len(p.terms) for s in steps for p in s.q.entries.values()),
            max((s.q.phi_degree() for s in steps), default=0),
            max((s.q.max_pole() for s in steps), default=0),
            max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                 for c in coeffs), default=0))))
    except AttributeError:
        return dict.fromkeys(CHAIN_STATS)


def merge_counts(total, part):
    for k, v in part.items():
        if v is None or total.get(k, 0) is None:
            total[k] = None
        elif k.endswith("_max"):
            total[k] = max(total.get(k, 0), v)
        else:
            total[k] = total.get(k, 0) + v


def layer_metrics(tr, n_ops, op_seconds, scale, counts, decompose_ext_s):
    """Per-layer metrics of the traced run.

    Times are seconds per op over every op of the run, scaled like the op
    times to the reference host; `op_share` is a layer's share of the
    measured op time.  Counts are exact totals over the first
    `count_ops` ops, which every run completes, so they repeat for a seed.
    """
    def per_op(name):
        return None if name in tr.missing else tr.time[name] * scale / n_ops

    def total(name, counter=None):
        return None if name in tr.missing else counts.get(counter or name, 0)

    quad_calls = total("numerics.quad")
    evals = total("numerics.eval_genfn")
    chain = per_op("reduction.francoise_chain")
    reducer = per_op("reduction.reducer_run")
    m = {
        "reduction.francoise_chain_s": chain,
        "reduction.reducer_run_s": reducer,
        "reduction.reducer_runs": total("reduction.reducer_run"),
        "reduction.chain_self_s": None if reducer is None else chain - reducer,
        **{k: counts.get(k) for k in CHAIN_STATS},
        "reduction.decompose_ext_s": decompose_ext_s,
        "triangle.d4_chain_s": per_op("triangle.d4_chain"),
        "triangle.reduce_full_s": per_op("triangle.reduce_full"),
        "triangle.reduce_full_calls": total("triangle.reduce_full"),
        "triangle.d4_fuchs_ode_s": per_op("triangle.d4_fuchs_ode"),
        "triangle.d4_local_exponents_s": per_op("triangle.d4_local_exponents"),
        "numerics.shooting_oracle_s": per_op("numerics.shooting_oracle"),
        "numerics.ode_solves": total("numerics.ode"),
        "numerics.ode_s": per_op("numerics.ode"),
        "numerics.ode_rhs_evals": total("numerics.ode", "numerics.ode_rhs_evals"),
        "numerics.count_zeros_s": per_op("numerics.count_zeros"),
        "numerics.eval_genfn_calls": evals,
        "numerics.quad_calls": quad_calls,
        "numerics.quad_s": per_op("numerics.quad"),
        "numerics.zero_brackets": counts.get("numerics.zero_brackets", 0),
        "numerics.quad_per_eval": (None if quad_calls is None or evals is None
                                   else quad_calls / evals if evals else 0.0),
        "cli.parse_one_form_s": per_op("cli.parse_one_form"),
    }
    for layer in LAYERS:
        m[f"{layer}.op_share"] = sum(tr.time[n] for n in OUTER_SPANS
                                     if n.startswith(layer + ".")) / op_seconds
    return m


def prepare_only(wl, seed):
    """One cold set-up, as a run makes it before its first timed op.

    Prints the set-up's phases in seconds of the reference host: each
    phase is timed on its own and scaled by the probes on either side, so
    that a burst of contention is caught within the second a set-up takes.
    """
    started = time.perf_counter()
    probe = HostProbe()
    marks = [probe.mark()]
    phases = []

    def phase(t0):
        phases.append((time.perf_counter() - t0, marks[-1], probe.mark()))
        marks.append(phases[-1][2])

    t0 = time.perf_counter()
    import numpy  # noqa: F401
    phase(t0)
    t0 = time.perf_counter()
    import scipy.integrate  # noqa: F401
    import scipy.optimize  # noqa: F401
    phase(t0)
    t0 = time.perf_counter()
    pkg = load_package()
    phase(t0)
    t0 = time.perf_counter()
    state = wl.prepare(pkg, seed)
    phase(t0)
    print(json.dumps({
        "raw_s": sum(p[0] for p in phases),
        "scaled_s": sum(probe.scale(*p) for p in phases),
        "decompose_ext_s": probe.scale(state.get("decompose_ext_s", 0.0), *phases[-1][1:]),
        "in_child_s": time.perf_counter() - started,
    }), flush=True)


def time_setups(args):
    """Time SETUP_REPS cold set-ups, each in a fresh interpreter.

    A set-up runs from the child's spawn until it has imported numpy, scipy
    and the package, generated the inputs and warmed up, that is until it
    could start its first timed op.  The child reports its phases scaled to
    the reference host; the interpreter's start-up before the first phase
    (the spawn-to-ready time the parent measures, less the child's phases
    and probes) is added unscaled.  Returns one dict per set-up with the
    scaled `setup_s`, the unscaled `raw_s` and `decompose_ext_s`.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - t0
            child.communicate(timeout=120)
        if child.returncode or not line:
            raise RuntimeError(f"set-up child exited with {child.returncode}")
        rep = json.loads(line)
        start = max(0.0, wall - rep.pop("in_child_s"))
        out.append({"setup_s": start + rep["scaled_s"], "raw_s": start + rep["raw_s"],
                    "decompose_ext_s": rep["decompose_ext_s"]})
    return out


def report_failure(args, i, wl, inp, problems):
    print(f"FAILED {args.workload} seed={args.seed} op={i}: {wl.describe(inp)}",
          file=sys.stderr)
    for p in problems:
        print(f"  {p}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "melnikov" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    from tracer import Tracer, no_span
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        prepare_only(wl, args.seed)
        return 0
    probe = HostProbe()

    setups = time_setups(args)
    setup_s = statistics.median(s["setup_s"] for s in setups)
    raw_setup_s = statistics.median(s["raw_s"] for s in setups)
    decompose_ext_s = statistics.median(s["decompose_ext_s"] for s in setups)
    # the measured process's own set-up, untimed
    import numpy
    import scipy
    pkg = load_package()
    state = wl.prepare(pkg, args.seed)
    probe.mark()

    tr = None
    span = no_span
    if args.trace:
        tr = Tracer()
        tr.install(pkg)
        span = tr.span

    ops = []            # [seconds, probe before, probe after, verified]
    timed = 0.0
    counts = {}
    i = 0
    while timed < args.seconds or i < wl.count_ops:
        inp = wl.make_input(state, args.seed, i)
        before = len(probe.times) - 1
        if tr:
            tr.active = True
        t0 = time.perf_counter()
        try:
            out = wl.run(state, inp, span)
            problems = None
        except Exception:
            out, problems = None, [traceback.format_exc()]
        dt = time.perf_counter() - t0
        if tr:
            tr.active = False
        ops.append([dt, before, probe.mark(), False])
        timed += dt
        if problems is None:
            try:
                problems = wl.check(state, inp, out)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            report_failure(args, i, wl, inp, problems)
        else:
            ops[-1][3] = True
        if tr and i < wl.count_ops:
            part = {"numerics.zero_brackets": out["brackets"] if out else 0}
            part.update(chain_stats(out["chains"] if out else []))
            merge_counts(counts, part)
            if i == wl.count_ops - 1:
                merge_counts(counts, dict(tr.count))
        i += 1

    attempted = len(ops)
    failed = sum(not ok for *_, ok in ops)
    scaled = [probe.scale(*op[:3]) for op in ops]
    lat = sorted(s for s, op in zip(scaled, ops) if op[3])
    ops_per_s = len(lat) / sum(scaled)
    tail_idx = max(0, len(lat) - 1 - TAIL_BEYOND)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} ops "
          f"({failed} failed) in {timed:.2f} s; unscaled {len(lat) / timed:.4f} ops/s, "
          f"set-up {raw_setup_s:.3f} s; "
          f"op_tail_s is p{100.0 * (tail_idx + 1) / max(1, len(lat)):.0f} of "
          f"{len(lat)} verified ops ({len(lat) - 1 - tail_idx} beyond it); fastest probe "
          f"{min(probe.times) * 1e3:.3f} ms, median {statistics.median(probe.times) * 1e3:.3f} ms")
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}")

    if args.trace:
        metrics = layer_metrics(tr, attempted, timed, sum(scaled) / timed, counts,
                                decompose_ext_s)
        metrics["trace.ops_per_s"] = ops_per_s
        # the traced run's own figures, before host-speed scaling
        raw = sorted(op[0] for op in ops if op[3])
        metrics.update({
            "unscaled.ops_per_s": len(raw) / timed,
            "unscaled.op_p50_s": statistics.median(raw) if raw else None,
            "unscaled.setup_s": raw_setup_s,
            "host.probe_ms": statistics.median(probe.times) * 1e3,
        })
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(lat) if lat else None,
            "op_tail_s": lat[tail_idx] if lat else None,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": len(lat) / attempted,
        }
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = listed["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
