"""Command-line front end: reproducible jobs with JSON and CSV artifacts.

Every run serializes its configuration, hashes it, and writes outputs under
a directory named by that hash, so identical jobs land in identical places
and symbolic outputs are byte-reproducible.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from .algebra import OneForm, Period, SPECS, ValidationError, WeightedPoly
from .monodromy import LoopWord, PairingError, WordError, homology_class, pair_with_form
from .numerics import (NumericsError, count_zeros, integrate_form,
                       shooting_oracle, trace_oval, zero_bound)
from .reduction import ShapeError, decompose, francoise_chain
from .triangle import (D4ChainError, d4_canonical, d4_chain, d4_fuchs_ode,
                       d4_local_exponents)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4
EXIT_INTERNAL = 5


# ---------------------------------------------------------------------------
# One-form grammar: signed sums of  c * x^i y^j (dx|dy)  with rational c
#
#   form := [sign] term (sign term)*        sign := "+" | "-"
#   term := [c] ["*"] ["x" ["^" n]] ["y" ["^" n]] ("dx" | "dy")
#   c    := digits ["/" digits]             n := digits, at most MAX_EXPONENT
#
# A missing coefficient is 1, so "-x dy" and "y dx - x dy" parse.
# ---------------------------------------------------------------------------

MAX_EXPONENT = 64

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<coef>\d+(?:/\d+)?)?\s*\*?\s*"
    r"(?P<xs>x(?:\^\d+)?)?\s*(?P<ys>y(?:\^\d+)?)?\s*(?P<basis>d[xy])\s*")


def _exponent(group) -> int:
    if group is None:
        return 0
    n = int(group[2:]) if "^" in group else 1
    if n > MAX_EXPONENT:
        raise ValidationError(f"exponent {n} exceeds the cap {MAX_EXPONENT}")
    return n


def parse_one_form(text: str) -> OneForm:
    a = WeightedPoly.zero()
    b = WeightedPoly.zero()
    pos = 0
    while text[pos:].strip():
        m = _TERM_RE.match(text, pos)
        if not m or (pos and not m.group("sign")):
            raise ValidationError(f"cannot parse one-form term at {text[pos:].strip()!r}")
        try:
            coef = Fraction(m.group("coef") or 1)
        except ZeroDivisionError:
            raise ValidationError(f"zero denominator in {m.group(0).strip()!r}") from None
        if m.group("sign") == "-":
            coef = -coef
        mono = WeightedPoly.mono(coef, _exponent(m.group("xs")), _exponent(m.group("ys")))
        if m.group("basis") == "dx":
            a = a + mono
        else:
            b = b + mono
        pos = m.end()
    return OneForm(a, b)


def format_one_form(w: OneForm) -> str:
    """Render a one-form in the grammar that parse_one_form reads."""
    parts = []
    for poly, basis in ((w.a, "dx"), (w.b, "dy")):
        for (i, j, k), c in poly.sorted_terms():
            if k:
                raise ValidationError("the one-form grammar has no H symbol")
            body = " ".join(s for s in (
                f"x^{i}" if i > 1 else "x" if i else "",
                f"y^{j}" if j > 1 else "y" if j else "") if s)
            term = " ".join(s for s in (str(abs(c)), body, basis) if s)
            sign = "-" if c < 0 else "+" if parts else ""
            parts.append(f"{sign} {term}" if parts else sign + term)
    return " ".join(parts)


def _parse_grid(text: str, number=float):
    try:
        vals = [number(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse {text!r} as a comma-separated list") from None
    if not vals:
        raise ValidationError("empty grid")
    return vals


def _parse_interval(text: str):
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:  # not two numbers
        raise ValidationError(f"cannot parse interval {text!r}; expected lo:hi") from None
    return lo, hi


def _resolve_form(args) -> str:
    if getattr(args, "form_file", None):
        try:
            return Path(args.form_file).read_text().strip()
        except OSError as exc:
            raise ValidationError(f"cannot read --form-file: {exc}") from None
    if getattr(args, "form", None):
        return args.form
    raise ValidationError("a one-form is required (--form or --form-file)")


def _job_dir(base: Path, config: dict) -> Path:
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    d = base / digest
    d.mkdir(parents=True, exist_ok=True)
    (d / "job.json").write_text(json.dumps(config, sort_keys=True, indent=2) + "\n")
    return d


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, rows):
    lines = ["t,value,source"]
    for t, v, src in rows:
        lines.append(f"{t!r},{v!r},{src}")
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_decompose(args, out_base):
    spec = SPECS[args.ham]
    if spec.kind != "quartic":
        raise ValidationError("decompose applies to the quartic family")
    w = parse_one_form(args.form)
    config = {"cmd": "decompose", "ham": args.ham, "form": args.form}
    job = _job_dir(out_base, config)
    dec = decompose(w, spec)
    result = dec.to_json()
    _write_json(job / "decompose.json", result)
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_melnikov(args, out_base):
    spec = SPECS[args.ham]
    if spec.kind != "quartic":
        raise ValidationError("melnikov applies to the quartic family; "
                              f"use the d4 subcommand for {args.ham}")
    form_text = _resolve_form(args)
    w = parse_one_form(form_text)
    config = {"cmd": "melnikov", "ham": args.ham, "annulus": args.annulus,
              "form": form_text, "k_max": args.k_max}
    job = _job_dir(out_base, config)
    res = francoise_chain(w, spec, args.annulus, k_max=args.k_max)
    if res.genfn is None:
        result = {"k": None, "all_zero_up_to": res.all_zero_up_to}
    else:
        result = res.genfn.to_json()
    trace = [{"k": s.k, "q": s.q.canonical(), "exact": s.exact.canonical()}
             for s in res.steps]
    _write_json(job / "generating_fn.json", result)
    _write_json(job / "trace.json", trace)
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_d4(args, out_base):
    if args.paper_example:
        form_text = "-2 dy + 1 x dy - 1/2 x^2 dy"
    else:
        form_text = _resolve_form(args)
    w = parse_one_form(form_text)
    config = {"cmd": "d4", "form": form_text}
    job = _job_dir(out_base, config)
    try:
        res = d4_chain(w)
    except D4ChainError as exc:  # M1 or M2 is nonzero: its periods are the result
        result = exc.periods.to_json()
    else:
        ode = None
        exps = None
        if not res.integrable:
            ode = d4_fuchs_ode(res.m3)
            roots, rem = d4_local_exponents(ode, 0)
            exps = [str(r) for r in roots]
        result = {
            "Q1": d4_canonical(res.Q1),
            "q1": d4_canonical(res.q1),
            "q2": d4_canonical(res.q2),
            "M3": res.m3.to_json(),
            "integrable": res.integrable,
            "ode": ode.to_json() if ode else None,
            "ode_text": ode.render() if ode else None,
            "exponents_at_0": exps,
        }
    _write_json(job / "d4.json", result)
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_sample(args, out_base):
    spec = SPECS[args.ham]
    grid = _parse_grid(args.t_grid)
    moments = _parse_grid(args.moments, int)
    if not (math.isfinite(args.quad_tol) and args.quad_tol > 0):
        raise ValidationError(f"--quad-tol must be finite and positive, got {args.quad_tol}")
    config = {"cmd": "sample", "ham": args.ham, "annulus": args.annulus,
              "t_grid": args.t_grid, "moments": args.moments,
              "quad_tol": args.quad_tol}
    job = _job_dir(out_base, config)
    rows = []
    for t in grid:
        ov = trace_oval(spec, t, args.annulus)
        for k in moments:
            rows.append((t, integrate_form(ov, Period.moment(k), epsrel=args.quad_tol),
                         "quadrature"))
    _write_csv(job / "sample.csv", rows)
    print((job / "sample.csv").read_text(), end="")
    return EXIT_OK


def _cmd_compare(args, out_base):
    spec = SPECS[args.ham]
    form_text = _resolve_form(args)
    w = parse_one_form(form_text)
    grid = _parse_grid(args.t_grid)
    eps = _parse_grid(args.eps_grid) if args.eps_grid else None
    config = {"cmd": "compare", "ham": args.ham, "annulus": args.annulus,
              "form": form_text, "t_grid": args.t_grid, "eps_grid": args.eps_grid}
    job = _job_dir(out_base, config)
    chain = francoise_chain(w, spec, args.annulus)
    if chain.genfn is None:
        raise ValidationError("perturbation is integrable to the tested order; "
                              "nothing to compare")
    samp = shooting_oracle(spec, w, args.annulus, grid, eps_grid=eps, symbolic=chain.genfn)
    rows = []
    for t, sv, bv in zip(samp.t_grid, samp.symbolic, samp.shooting):
        rows.append((t, sv, "symbolic"))
        rows.append((t, bv, "shooting"))
    _write_csv(job / "compare.csv", rows)
    result = {"symbolic_k": chain.k, "fitted_k": samp.fitted_k,
              "fit_residual": samp.fit_residual}
    _write_json(job / "compare.json", result)
    print((job / "compare.csv").read_text(), end="")
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_zeros(args, out_base):
    spec = SPECS[args.ham]
    form_text = _resolve_form(args)
    w = parse_one_form(form_text)
    interval = _parse_interval(args.interval)
    config = {"cmd": "zeros", "ham": args.ham, "annulus": args.annulus,
              "form": form_text, "interval": args.interval, "samples": args.samples}
    job = _job_dir(out_base, config)
    chain = francoise_chain(w, spec, args.annulus)
    if chain.genfn is None:
        raise ValidationError("perturbation is integrable to the tested order; "
                              "nothing to count")
    bound = (zero_bound(spec, args.annulus, chain.genfn.n, chain.k)
             if spec.kind == "quartic" else None)
    zc = count_zeros(chain.genfn, spec, args.annulus, interval, samples=args.samples,
                     bound=bound)
    result = {"count": zc.count, "brackets": zc.brackets, "bound": zc.bound}
    _write_json(job / "zeros.json", result)
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_pair(args, out_base):
    config = {"cmd": "pair", "word": args.word}
    job = _job_dir(out_base, config)
    word = LoopWord.parse(args.word)
    hom = homology_class(word)
    try:
        value = pair_with_form(word)
        diagnosis = "well defined"
        val_out = [value.real, value.imag]
    except PairingError as exc:
        diagnosis = str(exc)
        val_out = None
    result = {"word": word.display(), "homology_class": list(hom),
              "pairing": val_out, "diagnosis": diagnosis}
    _write_json(job / "pair.json", result)
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="melnikov",
                                 description="exact generating functions for perturbed "
                                             "planar Hamiltonian systems")
    ap.add_argument("--out", default="out", help="artifact root directory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("decompose", help="moment decomposition of a one-form")
    p.add_argument("--ham", required=True, choices=sorted(SPECS))
    p.add_argument("--form", required=True)

    p = sub.add_parser("melnikov", help="first nonvanishing generating function")
    p.add_argument("--ham", required=True, choices=sorted(SPECS))
    p.add_argument("--annulus", required=True)
    p.add_argument("--form")
    p.add_argument("--form-file")
    p.add_argument("--k-max", type=int, default=6)

    p = sub.add_parser("d4", help="triangle chain, coefficients and equation")
    p.add_argument("--form")
    p.add_argument("--form-file")
    p.add_argument("--paper-example", action="store_true")

    p = sub.add_parser("sample", help="CSV of oval moments over a grid")
    p.add_argument("--ham", required=True, choices=sorted(SPECS))
    p.add_argument("--annulus", required=True)
    p.add_argument("--t-grid", required=True)
    p.add_argument("--moments", default="0,1,2")
    p.add_argument("--quad-tol", type=float, default=1e-11)

    p = sub.add_parser("compare", help="symbolic vs shooting values")
    p.add_argument("--ham", required=True, choices=sorted(SPECS))
    p.add_argument("--annulus", required=True)
    p.add_argument("--form")
    p.add_argument("--form-file")
    p.add_argument("--t-grid", required=True)
    p.add_argument("--eps-grid")

    p = sub.add_parser("zeros", help="zero count of a generating function")
    p.add_argument("--ham", required=True, choices=sorted(SPECS))
    p.add_argument("--annulus", required=True)
    p.add_argument("--form")
    p.add_argument("--form-file")
    p.add_argument("--interval", required=True, help="lo:hi inside the annulus")
    p.add_argument("--samples", type=int, default=400)

    p = sub.add_parser("pair", help="monodromy pairing of a loop word")
    p.add_argument("--word", required=True)
    return ap


_DISPATCH = {
    "decompose": _cmd_decompose,
    "melnikov": _cmd_melnikov,
    "d4": _cmd_d4,
    "sample": _cmd_sample,
    "compare": _cmd_compare,
    "zeros": _cmd_zeros,
    "pair": _cmd_pair,
}


def _join_signed_values(argv):
    """"--interval -3:-1" -> "--interval=-3:-1" for the options whose values
    may start with "-" without being numbers, which argparse reads as options."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--interval", "--t-grid", "--eps-grid"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    out_base = Path(args.out)
    try:
        return _DISPATCH[args.cmd](args, out_base)
    except (ValidationError, WordError) as exc:
        print(json.dumps({"error": {"kind": "validation", "message": str(exc)}}))
        return EXIT_VALIDATION
    except ShapeError as exc:
        print(json.dumps({"error": {"kind": "shape", "message": str(exc)}}))
        return EXIT_SHAPE
    except (NumericsError, PairingError) as exc:
        print(json.dumps({"error": {"kind": "numeric", "message": str(exc)}}))
        return EXIT_NUMERIC
    except Exception as exc:  # a defect: report it as JSON, with its traceback
        print(json.dumps({"error": {"kind": "internal",
                                    "message": f"{type(exc).__name__}: {exc}",
                                    "traceback": traceback.format_exc()}}))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
