"""Acceptance suite: one test per criterion, one printed line each."""
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from melnikov.algebra import (
    WeightedPoly, OneForm, EIGHT_LOOP, DOUBLE_HETEROCLINIC, GLOBAL_CENTER,
    D4_TRIANGLE, Period, d,
)
from melnikov.monodromy import W, homology_class, pair_with_form
from melnikov.numerics import (
    trace_oval, integrate_form, moment, eval_genfn, phi_check, shooting_oracle,
    count_zeros, zero_bound, fit_istar_asymptotics, d4_ode_residual,
)
from melnikov.reduction import ExtElem, francoise_chain, m1_zero_forms
from melnikov.triangle import (D4GenFn, d4_chain, d4_fuchs_ode, d4_local_exponents, FuchsOde,
                               normalized)
from melnikov.upoly import Poly

X = WeightedPoly.var_x()
Y = WeightedPoly.var_y()


def _report(num, ok, text):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def paper_form():
    return OneForm(WeightedPoly.zero(),
                   WeightedPoly.const(-2) + X - X**2 * Fraction(1, 2))


def test_criterion_01_triangle_golden_chain():
    start = time.monotonic()
    res = d4_chain(paper_form())
    q1 = ExtElem()
    q1.add_term(1, 0, 0, 0, 0, Fraction(-1, 6))
    Q1 = ExtElem()
    Q1.add_term(1, 0, 1, 0, 0, Fraction(1, 6))
    Q1.add_term(0, 0, 0, 2, 1, Fraction(-1, 6))
    Q1.add_term(0, 0, 0, 0, 1, Fraction(-2))
    q2 = ExtElem()
    q2.add_term(2, 0, 0, 0, 0, Fraction(1, 72))
    q2.add_term(0, 0, -1, 3, 0, Fraction(1, 36))
    q2.add_term(0, 0, -1, 2, 0, Fraction(-1, 12))
    q2.add_term(0, 0, -1, 1, 0, Fraction(1, 3))
    q2.add_term(0, 0, -1, 0, 0, Fraction(-1))
    elapsed = time.monotonic() - start
    ok = (res.q1 == normalized(q1) and res.Q1 == normalized(Q1) and res.q2 == normalized(q2)
          and res.m3 == D4GenFn(Fraction(-3, 32), Fraction(0), Fraction(0), Fraction(1))
          and elapsed < 5.0)
    _report(1, ok, f"triangle golden chain exact, {elapsed:.2f}s")


def _displayed_ode():
    t = Poly([0, 1])
    a3 = t * t * (t + Poly.const(4)) * Poly([2048, 704, 39])
    a2 = t * Poly([32768, 18688, 3128, 117])
    a1 = Poly([18432, 9728, 1544, 39]) * Fraction(8, 9)
    return FuchsOde(order=3, coeffs=[Poly(), a1, a2, a3], singular_points=[]).normalized()


def test_criterion_02_fuchs_equation_and_exponents():
    res = d4_chain(paper_form())
    ode = d4_fuchs_ode(res.m3)
    roots, rem = d4_local_exponents(ode, 0)
    ok = (ode.proportional_to(_displayed_ode()) and rem is None
          and roots == [Fraction(-1), Fraction(0), Fraction(0)])
    _report(2, ok, "third-order equation matches displayed coefficients; "
                   "exponents at 0 are -1, 0, 0")


def test_criterion_03_ode_residual():
    res = d4_chain(paper_form())
    ode = d4_fuchs_ode(res.m3)
    worst = d4_ode_residual(res.m3, ode, np.linspace(-3.5, -0.5, 15))
    _report(3, worst < 1e-4, f"finite-difference equation residual {worst:.2e} < 1e-4")


def test_criterion_04_moment_recursion():
    worst = 0.0
    for t in (-3.0, -2.0, -1.0):
        ov = trace_oval(D4_TRIANGLE, t, "main")
        I = {k: integrate_form(ov, Period.moment(k)) for k in range(0, 4)}
        Im1 = integrate_form(ov, Period.moment(-1))
        scale = max(abs(v) for v in I.values())
        worst = max(worst, abs(I[1] - I[0]) / scale)
        for k in (1, 2):
            lhs = (2 * k + 6) * I[k + 1]
            rhs = (12 * k + 18) * I[k] - 18 * k * I[k - 1] \
                - (2 * k - 3) * t * (I[k - 2] if k >= 2 else Im1)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    _report(4, worst < 1e-8, f"moment recursion and lowest-moment equality to {worst:.2e}")


def test_criterion_05_pairing():
    comm = pair_with_form(W("[g1,g2]"))
    delta = pair_with_form(W("d"))
    b0 = pair_with_form(W("g1 g2 g3"), branch_offset=0)
    b1 = pair_with_form(W("g1 g2 g3"), branch_offset=1)
    ok = (abs(comm - (-4 * math.pi**2)) < 1e-6
          and abs(delta) < 1e-8
          and abs(b0 - b1) < 1e-8
          and homology_class(W("[g1,g2]")) == (0, 0, 0, 0)
          and abs(comm) > 1.0)
    _report(5, ok, f"commutator pairing {comm.real:.7f} with zero homology class")


def _random_forms(n, seed, count, constrained):
    """Degree-n perturbations; 'constrained' ones have vanishing first step."""
    rng = random.Random(seed)
    monos = [(i, j, w) for i in range(n + 1) for j in range(n + 1) for w in (0, 1)
             if 0 < i + j <= n or (i == j == 0)]
    basis = []
    for (i, j, w) in monos:
        p = WeightedPoly.mono(1, i, j)
        basis.append(OneForm(p, WeightedPoly.zero()) if w == 0
                     else OneForm(WeightedPoly.zero(), p))
    out = []
    if not constrained:
        while len(out) < count:
            w = OneForm(WeightedPoly.zero(), WeightedPoly.zero())
            for f in basis:
                if rng.random() < 0.4:
                    w = w + f.scale(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
            if not w.is_zero() and w.weighted_degree() == n:
                out.append(w)
        return out
    family = m1_zero_forms(EIGHT_LOOP, n)
    while len(out) < count:
        w = OneForm(WeightedPoly.zero(), WeightedPoly.zero())
        for g in family:
            if rng.random() < 0.5:
                c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
                if c:
                    w = w + g.scale(c)
        if not w.is_zero() and w.weighted_degree() == n:
            out.append(w)
    return out


CHAIN_RESULTS = []


def test_criterion_06_exterior_structure():
    start = time.monotonic()
    checked = 0
    for n in (3, 5):
        forms = (_random_forms(n, seed=100 + n, count=5, constrained=False)
                 + _random_forms(n, seed=200 + n, count=5, constrained=True))
        for w in forms:
            res = francoise_chain(w, EIGHT_LOOP, "exterior", k_max=5)
            if res.genfn is None:
                continue
            res.genfn.check_shape()      # structure theorem, odd-n sharpening
            assert res.genfn.beta.is_zero()
            CHAIN_RESULTS.append((n, res.k, res.genfn))
            checked += 1
    elapsed = time.monotonic() - start
    ks = sorted({k for (_, k, _) in CHAIN_RESULTS})
    ok = checked >= 18 and elapsed < 60.0 and max(ks) >= 2
    _report(6, ok, f"{checked} exterior chains with orders {ks} "
                   f"pass the structural bounds in {elapsed:.1f}s")


def test_criterion_07_oracle_agreement():
    start = time.monotonic()
    w_k2 = d(X**2 * Y, EIGHT_LOOP)
    hx, hy = EIGHT_LOOP.grad()
    w_k2 = w_k2 + OneForm(X * hx, X * hy)
    fine = [2.5e-4, 5e-4, 1e-3, 2e-3]
    cases = [
        (EIGHT_LOOP, "interior_right", OneForm(Y, WeightedPoly.zero()),
         [0.06, 0.10, 0.15], 1, None),
        (EIGHT_LOOP, "interior_right", w_k2, [0.06, 0.10, 0.15], 2, None),
        (EIGHT_LOOP, "exterior", OneForm(Y**3, WeightedPoly.zero()),
         [0.45, 0.7, 1.0], 1, fine),
        (DOUBLE_HETEROCLINIC, "main", OneForm(Y, WeightedPoly.zero()),
         [-0.18, -0.12, -0.08], 1, None),
        (GLOBAL_CENTER, "main", OneForm(Y**3, WeightedPoly.zero()),
         [0.45, 0.7, 1.0], 1, fine),
    ]
    # one exterior chain of second order from the constrained family
    k2_forms = _random_forms(3, seed=203, count=5, constrained=True)
    for w in k2_forms:
        res = francoise_chain(w, EIGHT_LOOP, "exterior", k_max=4)
        if res.k == 2:
            cases.append((EIGHT_LOOP, "exterior", w, [0.45, 0.7, 1.0], 2, fine))
            break
    worst = 0.0
    for spec, annulus, w, ts, k_expect, grid in cases:
        chain = francoise_chain(w, spec, annulus)
        assert chain.k == k_expect
        samp = shooting_oracle(spec, w, annulus, ts, eps_grid=grid,
                               symbolic=chain.genfn)
        assert samp.fitted_k == k_expect, (spec.name, annulus, samp.fitted_k)
        for sv, bv in zip(samp.symbolic, samp.shooting):
            worst = max(worst, abs(sv - bv) / abs(sv))
    # the triangle third-order example
    res = d4_chain(paper_form())
    samp = shooting_oracle(D4_TRIANGLE, paper_form(), "main", [-3.0, -2.0, -1.0],
                           symbolic=res.m3)
    assert samp.fitted_k == 3
    for sv, bv in zip(samp.symbolic, samp.shooting):
        worst = max(worst, abs(sv - bv) / abs(sv))
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and elapsed < 600.0
    _report(7, ok, f"shooting matches symbolic orders and values to {worst:.1e} "
                   f"in {elapsed:.0f}s")


def test_criterion_08_symmetry_and_phi():
    worst_i1 = 0.0
    for spec, annulus, ts in (
            (EIGHT_LOOP, "exterior", np.linspace(0.3, 5.0, 10)),
            (DOUBLE_HETEROCLINIC, "main", np.linspace(-0.24, -0.02, 10)),
            (GLOBAL_CENTER, "main", np.linspace(0.3, 5.0, 10))):
        for t in ts:
            ov = trace_oval(spec, float(t), annulus)
            worst_i1 = max(worst_i1, abs(integrate_form(ov, Period.moment(1))))
    worst_phi = worst_jump = 0.0
    for spec, t in ((EIGHT_LOOP, 1.0), (DOUBLE_HETEROCLINIC, -0.1), (GLOBAL_CENTER, 1.0)):
        rep = phi_check(spec, t)
        worst_phi = max(worst_phi, abs(rep.endpoint_values[0]),
                        abs(rep.endpoint_values[1]))
        worst_jump = max(worst_jump, rep.max_jump)
        assert rep.max_jump < 0.02
    ok = worst_i1 < 1e-10 and worst_phi < 1e-10
    _report(8, ok, f"odd moment vanishes to {worst_i1:.1e}; "
                   f"phi single-valued (largest step {worst_jump:.1e} on 4000 points) "
                   f"with zero axis values to {worst_phi:.1e}")


def test_criterion_09_zero_bounds():
    assert zero_bound(EIGHT_LOOP, "exterior", 5, 1) == 5
    assert zero_bound(EIGHT_LOOP, "exterior", 3, 2) == 7
    assert zero_bound(DOUBLE_HETEROCLINIC, "main", 3, 2) == 6
    assert zero_bound(EIGHT_LOOP, "exterior", 3, 3) == 9
    if not CHAIN_RESULTS:
        test_criterion_06_exterior_structure()
    checked = 0
    for n, k, gf in CHAIN_RESULTS:
        bound = zero_bound(EIGHT_LOOP, "exterior", n, k)
        zc = count_zeros(gf, EIGHT_LOOP, "exterior", (0.26, 10.0),
                         samples=200, bound=bound)
        assert zc.count <= bound
        checked += 1
    _report(9, checked > 0, f"zero counts of {checked} chains within the bounds")


def test_criterion_10_log_square_asymptotics():
    fit = fit_istar_asymptotics(-np.logspace(-4, -2, 12))
    c_ok = abs(fit["const"] - (-6.0)) < 0.02 * 6.0
    l_ok = abs(fit["t_ln2"] - (-1.0 / 6.0)) < 0.05 * (1.0 / 6.0)
    _report(10, c_ok and l_ok,
            f"log period fits -6 - t ln^2 t / 6: const {fit['const']:.4f}, "
            f"ln^2 coefficient {fit['t_ln2']:.5f}")
