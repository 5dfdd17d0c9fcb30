"""The three benchmark workloads: seeded inputs, one timed op each, checks.

Every op calls the package's public functions in the order the matching
`melnikov` CLI subcommand calls them: `cli.parse_one_form` on the form's
text, then the chain (`reduction.francoise_chain` or `triangle.d4_chain`),
then the numerical oracles.  The package sees only the generated inputs.

A workload object holds no state of its own; `prepare` returns the state
that `make_input`, `run` and `check` share.  `run` is the only timed part.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

from tracer import no_span

REL_QUAD = 1e-8     # tests/test_reduction.py, tests/test_cross_module.py
REL_SHOOT = 1e-3    # acceptance criterion 07


def form_text(w) -> str:
    """Render a one-form in the grammar that `cli.parse_one_form` reads."""
    parts = []
    for poly, basis in ((w.a, "dx"), (w.b, "dy")):
        for (i, j, k), c in poly.sorted_terms():
            if k:
                raise ValueError("the CLI grammar has no H symbol")
            body = " ".join(s for s in (
                f"x^{i}" if i > 1 else "x" if i else "",
                f"y^{j}" if j > 1 else "y" if j else "") if s)
            term = " ".join(s for s in (str(abs(c)), body, basis) if s)
            sign = "-" if c < 0 else "+" if parts else ""
            parts.append(f"{sign} {term}" if parts else sign + term)
    return " ".join(parts)


def _nonzero_coef(rng, num, den):
    return Fraction(rng.choice((-1, 1)) * rng.randrange(1, num + 1),
                    rng.randrange(1, den + 1))


def _parse(pkg, span, text):
    with span("cli.parse_one_form"):
        return pkg.cli.parse_one_form(text)


# ---------------------------------------------------------------------------
# deep_chain: exact reduction only
# ---------------------------------------------------------------------------

class DeepChain:
    """francoise_chain(g dH, eight-loop exterior, k_max=6) for random g.

    g dH is integrable, so every one of the six steps runs.  Every q_k of
    g dH stays a polynomial (phi-degree and pole depth 0), so the op
    exercises polynomial reduction only; the phi and pole paths run on
    exterior_survey.  g always holds the four monomials of
    weighted degree 3 and each lower monomial with probability 1/2, which
    keeps the op cost within a factor of about 1.5 between inputs.
    """

    name = "deep_chain"
    count_ops = 3
    K_MAX = 6

    def prepare(self, pkg, seed):
        # warm-up: a two-step chain exercises every code path of the op
        inp = self._input(pkg, random.Random(f"{seed}/warm-up"))
        pkg.reduction.francoise_chain(inp["form"], pkg.algebra.EIGHT_LOOP,
                                      "exterior", k_max=2)
        return {"pkg": pkg}

    def _input(self, pkg, rng):
        alg = pkg.algebra
        terms = {}
        for i in range(4):
            for j in range(4 - i):
                if i + j == 3 or rng.random() < 0.5:
                    terms[(i, j, 0)] = _nonzero_coef(rng, 5, 3)
        g = alg.WeightedPoly(terms)
        hx, hy = alg.EIGHT_LOOP.grad()
        form = alg.OneForm(g * hx, g * hy)
        return {"form": form, "text": form_text(form), "g": g.canonical()}

    def make_input(self, state, seed, i):
        return self._input(state["pkg"], random.Random(f"{seed}/{i}"))

    def run(self, state, inp, span):
        pkg = state["pkg"]
        w = _parse(pkg, span, inp["text"])
        with span("reduction.francoise_chain"):
            res = pkg.reduction.francoise_chain(w, pkg.algebra.SPECS["eight-loop"],
                                                "exterior", k_max=self.K_MAX)
        return {"form": w, "chains": [res], "brackets": 0}

    def check(self, state, inp, out):
        res = out["chains"][0]
        errs = []
        if out["form"] != inp["form"]:
            errs.append("parsed form differs from the generated form")
        if res.genfn is not None or res.all_zero_up_to != self.K_MAX:
            errs.append(f"g dH gave k={res.k}, all_zero_up_to={res.all_zero_up_to}")
        return errs

    def describe(self, inp):
        return f"g = {inp['g']}"


# ---------------------------------------------------------------------------
# exterior_survey: many short chains, zero scans served by the moment cache
# ---------------------------------------------------------------------------

class ExteriorSurvey:
    """One survey row per op: a degree-5 and a degree-7 exterior form from
    each of the two families, unconstrained (k = 1) and M1 = 0 (k = 2).

    Each form runs francoise_chain(k_max=5), zero_bound and a 200-sample
    count_zeros over (0.26, 10.0).  All scans share one level grid, so after
    the warm-up scan the moment cache answers every grid point and only the
    brentq refinements reach quadrature.  One row holds all four kinds
    because a single-form op has a four-mode latency whose median falls
    between two modes and jumps from seed to seed.
    """

    name = "exterior_survey"
    count_ops = 10
    DEGREES = (5, 7)
    K_MAX = 5
    INTERVAL = (0.26, 10.0)
    SAMPLES = 200

    def prepare(self, pkg, seed):
        families = {n: self._family(pkg, n) for n in self.DEGREES}
        state = {"pkg": pkg, "families": {n: f[:2] for n, f in families.items()},
                 "decompose_ext_s": sum(f[2] for f in families.values())}
        # warm-up: one full row fills the moment cache on the shared grid
        self.run(state, self.make_input(state, seed, "warm-up"), no_span)
        return state

    @staticmethod
    def _family(pkg, n):
        """Monomial basis of degree <= n, the nullspace of its residue map,
        and the seconds spent in decompose_ext.

        A combination of nullspace vectors has vanishing M1 on the exterior
        annulus (the M1 = 0 family of criteria 06 and 09).
        """
        alg = pkg.algebra
        basis = []
        for i in range(n + 1):
            for j in range(n + 1 - i):
                p = alg.WeightedPoly.mono(1, i, j)
                basis.append(alg.OneForm(p, alg.WeightedPoly.zero()))
                basis.append(alg.OneForm(alg.WeightedPoly.zero(), p))
        residues = []
        t0 = time.perf_counter()
        for f in basis:
            dec = pkg.reduction.decompose_ext(f, alg.EIGHT_LOOP)
            residues.append((list(dec.alpha.coeffs), list(dec.gamma.coeffs)))
        decompose_s = time.perf_counter() - t0
        width = max(max(len(a), len(g)) for a, g in residues)
        pad = lambda c: c + [Fraction(0)] * (width - len(c))
        rows = [pad(a) + pad(g) for a, g in residues]
        mat = [[row[c] for row in rows] for c in range(2 * width)]
        return basis, pkg.upoly.exact_nullspace(mat, len(rows)), decompose_s

    def _draw(self, pkg, rng, n, constrained, basis, null):
        zero = pkg.algebra.OneForm.zero()
        while True:
            w = zero
            if constrained:
                for v in null:
                    if rng.random() < 0.5:
                        c = _nonzero_coef(rng, 4, 2)
                        for cv, f in zip(v, basis):
                            if cv:
                                w = w + f.scale(cv * c)
            else:
                for f in basis:
                    if rng.random() < 0.4:
                        w = w + f.scale(_nonzero_coef(rng, 5, 3))
            if w.weighted_degree() == n:
                return w

    def make_input(self, state, seed, i):
        pkg = state["pkg"]
        rng = random.Random(f"{seed}/{i}")
        forms = []
        for constrained in (False, True):
            for n in self.DEGREES:
                basis, null = state["families"][n]
                w = self._draw(pkg, rng, n, constrained, basis, null)
                forms.append({"n": n, "constrained": constrained, "form": w,
                              "text": form_text(w),
                              # level of the quadrature check, beyond the warm grid
                              "t_check": rng.uniform(0.3, 3.0)})
        return {"forms": forms}

    def run(self, state, inp, span):
        pkg = state["pkg"]
        spec = pkg.algebra.SPECS["eight-loop"]
        out = {"forms": [], "chains": [], "brackets": 0}
        for f in inp["forms"]:
            w = _parse(pkg, span, f["text"])
            with span("reduction.francoise_chain"):
                res = pkg.reduction.francoise_chain(w, spec, "exterior", k_max=self.K_MAX)
            zc = bound = None
            if res.genfn is not None:
                bound = pkg.numerics.zero_bound(spec, "exterior", res.genfn.n, res.k)
                with span("numerics.count_zeros"):
                    zc = pkg.numerics.count_zeros(res.genfn, spec, "exterior",
                                                  self.INTERVAL, samples=self.SAMPLES,
                                                  bound=bound)
                out["brackets"] += len(zc.brackets)
            out["forms"].append({"form": w, "res": res, "zeros": zc, "bound": bound})
            out["chains"].append(res)
        return out

    def check(self, state, inp, out):
        pkg = state["pkg"]
        num = pkg.numerics
        spec = pkg.algebra.EIGHT_LOOP
        errs = []
        for f, o in zip(inp["forms"], out["forms"]):
            tag = f"n={f['n']} {'constrained' if f['constrained'] else 'unconstrained'}"
            res = o["res"]
            if o["form"] != f["form"]:
                errs.append(f"{tag}: parsed form differs from the generated form")
            if res.genfn is None:
                errs.append(f"{tag}: all orders vanish up to {res.all_zero_up_to}")
                continue
            try:
                res.genfn.check_shape()
            except pkg.reduction.ShapeError as exc:
                errs.append(f"{tag}: check_shape: {exc}")
            if f["constrained"] and res.k < 2:
                errs.append(f"{tag}: M1 = 0 family gave k={res.k}")
            if o["zeros"].count > o["bound"]:
                errs.append(f"{tag}: {o['zeros'].count} zeros > bound {o['bound']}")
            t = f["t_check"]
            oval = num.trace_oval(spec, t, "exterior")
            if res.k == 1:
                direct = num.integrate_form(oval, f["form"])
            elif res.k == 2:
                direct = num.integrate_ext_product(oval, res.steps[0].q, f["form"])
            else:
                errs.append(f"{tag}: no quadrature oracle for k={res.k}")
                continue
            symbolic = num.eval_genfn(res.genfn, spec, "exterior", t)
            if abs(direct - symbolic) >= REL_QUAD * max(1.0, abs(symbolic)):
                errs.append(f"{tag}: quadrature {direct!r} vs M{res.k}({t}) = {symbolic!r}")
        return errs

    def describe(self, inp):
        return "; ".join(f"n={f['n']} constrained={f['constrained']}: {f['text']}"
                         for f in inp["forms"])


# ---------------------------------------------------------------------------
# oracle_verify: shooting and zero scans on fresh levels
# ---------------------------------------------------------------------------

_FINE = (2.5e-4, 5e-4, 1e-3, 2e-3)

# (hamiltonian, annulus, form, level range, eps grid, zero-scan interval);
# the level ranges and eps grids are those of acceptance criterion 07.
ORACLE_CASES = (
    ("eight-loop", "interior_right", "1 y dx", (0.06, 0.15), None, (0.02, 0.23)),
    ("eight-loop", "exterior", "1 y^3 dx", (0.45, 1.0), _FINE, (0.26, 10.0)),
    ("double-heteroclinic", "main", "1 y dx", (-0.18, -0.08), None, (-0.24, -0.01)),
    ("global-center", "main", "1 y^3 dx", (0.45, 1.0), _FINE, (0.26, 10.0)),
    ("d4-triangle", "main", "-2 dy + 1 x dy - 1/2 x^2 dy", (-3.0, -1.0), None,
     (-3.9, -0.1)),
)
TRIANGLE_M3 = (Fraction(-3, 32), Fraction(0), Fraction(0), Fraction(1))


class OracleVerify:
    """Op i takes case i mod 5: the criterion-07 cases plus the triangle
    paper form.  It runs the chain (and for the triangle d4_fuchs_ode and
    d4_local_exponents), shooting_oracle on three fresh seeded levels, and a
    400-sample count_zeros on a seeded, jittered interval.  Fresh levels
    keep the moment cache from answering, so quadrature, eval_float and
    solve_ivp carry the op.
    """

    name = "oracle_verify"
    count_ops = 10
    SAMPLES = 400
    JITTER = 0.02       # share of the scan interval moved at each end

    def prepare(self, pkg, seed):
        state = {"pkg": pkg}
        # warm-up: one op of the costliest case
        self.run(state, self.make_input(state, seed, 4, tag="warm-up"),
                 no_span)
        return state

    def make_input(self, state, seed, i, tag=None):
        ham, annulus, text, (lo, hi), eps, (zlo, zhi) = ORACLE_CASES[i % len(ORACLE_CASES)]
        rng = random.Random(f"{seed}/{tag if tag is not None else i}")
        jit = self.JITTER * (zhi - zlo)
        return {"ham": ham, "annulus": annulus, "text": text, "eps": eps,
                "levels": sorted(rng.uniform(lo, hi) for _ in range(3)),
                "interval": (zlo + rng.uniform(0, jit), zhi - rng.uniform(0, jit))}

    def run(self, state, inp, span):
        pkg = state["pkg"]
        spec = pkg.algebra.SPECS[inp["ham"]]
        num = pkg.numerics
        w = _parse(pkg, span, inp["text"])
        out = {"form": w, "chains": [], "exponents": None, "bound": None}
        if spec.kind == "quartic":
            with span("reduction.francoise_chain"):
                chain = pkg.reduction.francoise_chain(w, spec, inp["annulus"])
            out["chains"].append(chain)
            gf, out["k"] = chain.genfn, chain.k
            out["bound"] = num.zero_bound(spec, inp["annulus"], gf.n, chain.k)
        else:
            tri = pkg.triangle
            with span("triangle.d4_chain"):
                res = tri.d4_chain(w)
            gf, out["k"] = res.m3, 3
            with span("triangle.d4_fuchs_ode"):
                ode = tri.d4_fuchs_ode(res.m3)
            with span("triangle.d4_local_exponents"):
                out["exponents"] = tri.d4_local_exponents(ode, 0)
        out["gf"] = gf
        with span("numerics.shooting_oracle"):
            out["sample"] = num.shooting_oracle(spec, w, inp["annulus"], inp["levels"],
                                                eps_grid=inp["eps"], symbolic=gf)
        with span("numerics.count_zeros"):
            out["zeros"] = num.count_zeros(gf, spec, inp["annulus"], inp["interval"],
                                           samples=self.SAMPLES, bound=out["bound"])
        out["brackets"] = len(out["zeros"].brackets)
        return out

    def check(self, state, inp, out):
        errs = []
        samp = out["sample"]
        if samp.fitted_k != out["k"]:
            errs.append(f"shooting fitted k={samp.fitted_k}, symbolic k={out['k']}")
        for t, sv, bv in zip(inp["levels"], samp.symbolic, samp.shooting):
            gap = abs(sv - bv) / abs(sv)
            if not gap < REL_SHOOT:
                errs.append(f"t={t!r}: symbolic {sv!r} vs shooting {bv!r}, gap {gap:.2e}")
        if out["exponents"] is not None:
            gf = out["gf"]
            if (gf.c_m1, gf.c0, gf.c1, gf.cstar) != TRIANGLE_M3:
                errs.append(f"triangle M3 = {gf.to_json()}")
            roots, rem = out["exponents"]
            if rem is not None or roots != [Fraction(-1), Fraction(0), Fraction(0)]:
                errs.append(f"triangle exponents at 0: {roots}, remainder {rem}")
        if out["bound"] is not None and out["zeros"].count > out["bound"]:
            errs.append(f"{out['zeros'].count} zeros > bound {out['bound']}")
        return errs

    def describe(self, inp):
        return (f"{inp['ham']} {inp['annulus']} {inp['text']!r} levels={inp['levels']} "
                f"interval={inp['interval']}")


WORKLOADS = {w.name: w for w in (DeepChain(), ExteriorSurvey(), OracleVerify())}
