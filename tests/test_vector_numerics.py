"""The vectorised numerics against per-level references.

period_values, count_zeros and shooting_oracle each treat a whole vector of
levels (or of (level, eps) pairs) in one pass.  Each test here compares one
of them with the per-level computation it replaces: adaptive quadrature per
level and period, a scan that evaluates one level at a time, and one DOP853
solve per (level, eps) pair with a section event.
"""
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from melnikov import numerics
from melnikov.algebra import (
    WeightedPoly, OneForm, EIGHT_LOOP, DOUBLE_HETEROCLINIC, GLOBAL_CENTER,
    D4_TRIANGLE, ISTAR, Period,
)
from melnikov.numerics import (
    NumericsError, count_zeros, eval_genfn, integrate_form, period_values,
    shooting_oracle, trace_oval, zero_bound,
)
from melnikov.reduction import francoise_chain
from melnikov.triangle import d4_chain

from test_acceptance import _random_forms, paper_form

X = WeightedPoly.var_x()
Y = WeightedPoly.var_y()

_QUARTIC_BASIS = (Period.moment(0), Period.moment(1), Period.moment(2), Period.moment(3),
                  Period.moment(0, ypow=-1), Period.moment(2, ypow=3))
_TRIANGLE_BASIS = (Period.moment(-1), Period.moment(0), ISTAR, Period.moment(2),
                   Period(((-1, 0.5),), 0, -1))


def _levels(spec, annulus, rng):
    """Random levels across the annulus plus levels within 1e-3 of each end
    that is a critical value (an infinite end gets large levels instead)."""
    lo, hi = spec.sigma_range(annulus)
    top = hi if np.isfinite(hi) else 20.0
    levels = [rng.uniform(lo, top) for _ in range(12)]
    levels += [lo + rng.uniform(1e-5, 1e-3) for _ in range(3)]
    if np.isfinite(hi):
        levels += [hi - rng.uniform(1e-5, 1e-3) for _ in range(3)]
    else:
        levels += [rng.uniform(50.0, 500.0) for _ in range(2)]
    return levels


@pytest.mark.parametrize("spec,annulus", [
    (EIGHT_LOOP, "interior_left"), (EIGHT_LOOP, "interior_right"), (EIGHT_LOOP, "exterior"),
    (DOUBLE_HETEROCLINIC, "main"), (GLOBAL_CENTER, "main"), (D4_TRIANGLE, "main")])
def test_vector_period_values_match_quadrature_per_level(spec, annulus):
    basis = _TRIANGLE_BASIS if spec is D4_TRIANGLE else _QUARTIC_BASIS
    levels = _levels(spec, annulus, random.Random(f"{spec.name}/{annulus}"))
    numerics._MOMENT_CACHE.clear()
    values = period_values(spec, annulus, np.array(levels), basis)
    numerics._MOMENT_CACHE.clear()
    assert values.shape == (len(levels), len(basis))
    for t, row in zip(levels, values):
        oval = trace_oval(spec, t, annulus)
        for period, v in zip(basis, row):
            ref = integrate_form(oval, period)
            assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), (t, period, v, ref)


def test_a_level_next_to_the_separatrix_takes_the_quadrature_fallback(monkeypatch):
    t, period = 0.2501, Period.moment(0)
    oval = trace_oval(EIGHT_LOOP, t, "exterior")
    ref = integrate_form(oval, period)
    theta, weights = numerics._gauss_legendre(numerics.GL_ORDERS[-1])
    rule = (numerics._period_integrand(period, *numerics._geometry(oval, theta)) * weights).sum()
    assert abs(rule - ref) > 1e-6 * abs(ref)       # 256 nodes are still 5e-6 off
    calls = []
    quad = numerics.quad
    monkeypatch.setattr(numerics, "quad", lambda *a, **k: calls.append(1) or quad(*a, **k))
    numerics._MOMENT_CACHE.clear()
    value = numerics.moment(EIGHT_LOOP, "exterior", t, 0)
    numerics._MOMENT_CACHE.clear()
    assert calls and value == ref


def test_vector_trace_oval_names_the_offending_level():
    with pytest.raises(NumericsError, match="level 0.3 "):
        trace_oval(EIGHT_LOOP, np.array([0.1, 0.3, 0.2]), "interior_right")
    with pytest.raises(NumericsError, match="level 0.5 "):
        trace_oval(D4_TRIANGLE, np.array([-2.0, 0.5]), "main")


def test_vector_trace_oval_matches_the_scalar_ovals():
    levels = np.concatenate([np.linspace(-3.9999, -0.0001, 50), [-4 + 1e-5, -1e-5]])
    ovals = trace_oval(D4_TRIANGLE, levels, "main")
    assert ovals.x_lo.shape == (len(levels), 1)
    for t, lo, hi in zip(levels, ovals.x_lo[:, 0], ovals.x_hi[:, 0]):
        oval = trace_oval(D4_TRIANGLE, float(t), "main")
        assert abs(lo - oval.x_lo) <= 1e-15 * hi and abs(hi - oval.x_hi) <= 1e-15 * hi
        for x, y in oval.points(40):
            assert abs(D4_TRIANGLE.h_poly.eval_float(x, y) - t) < 1e-12


# -- zero scans --------------------------------------------------------------

def _per_level_scan(gf, spec, annulus, interval, samples):
    """Sign changes of the generating function evaluated one level at a time."""
    ts = np.linspace(*interval, samples)
    vals = [eval_genfn(gf, spec, annulus, float(t)) for t in ts]
    brackets = []
    for i in range(len(ts) - 1):
        if vals[i] * vals[i + 1] < 0:
            brackets.append((float(ts[i]), float(ts[i + 1])))
    return brackets


def _scan_cases():
    cases = []
    for n in (3, 5):      # the chains of acceptance criteria 06 and 09
        for w in (_random_forms(n, seed=100 + n, count=5, constrained=False)
                  + _random_forms(n, seed=200 + n, count=5, constrained=True)):
            res = francoise_chain(w, EIGHT_LOOP, "exterior", k_max=5)
            if res.genfn is not None:
                cases.append((res.genfn, EIGHT_LOOP, "exterior", (0.26, 10.0), 200,
                              zero_bound(EIGHT_LOOP, "exterior", n, res.k)))
    for spec, annulus, w, interval in (    # the oracle_verify benchmark cases
            (EIGHT_LOOP, "interior_right", OneForm(Y, WeightedPoly.zero()), (0.02, 0.23)),
            (EIGHT_LOOP, "exterior", OneForm(Y**3, WeightedPoly.zero()), (0.26, 10.0)),
            (DOUBLE_HETEROCLINIC, "main", OneForm(Y, WeightedPoly.zero()), (-0.24, -0.01)),
            (GLOBAL_CENTER, "main", OneForm(Y**3, WeightedPoly.zero()), (0.26, 10.0))):
        res = francoise_chain(w, spec, annulus)
        cases.append((res.genfn, spec, annulus, interval, 400,
                      zero_bound(spec, annulus, res.genfn.n, res.k)))
    cases.append((d4_chain(paper_form()).m3, D4_TRIANGLE, "main",
                   (-3.9, -0.1), 400, None))
    return cases


def test_count_zeros_matches_a_per_level_scan():
    cases = _scan_cases()
    assert len(cases) >= 23
    numerics._MOMENT_CACHE.clear()
    counts = [count_zeros(gf, spec, annulus, interval, samples=samples, bound=bound)
              for gf, spec, annulus, interval, samples, bound in cases]
    numerics._MOMENT_CACHE.clear()
    for zc, (gf, spec, annulus, interval, samples, _) in zip(counts, cases):
        ref = _per_level_scan(gf, spec, annulus, interval, samples)
        assert zc.count == len(ref)
        assert [(lo, hi) for lo, hi, _ in zc.brackets] == ref
        for lo, hi, root in zc.brackets:
            assert lo <= root <= hi
            assert abs(eval_genfn(gf, spec, annulus, root)) < 1e-9
    numerics._MOMENT_CACHE.clear()


# -- shooting ----------------------------------------------------------------

def _per_pair_displacements(spec, w, annulus, t_grid, eps_grid):
    """One DOP853 solve per (level, eps) pair: 0.35 periods without the
    section, then on to the first direction-filtered section crossing."""
    h = spec.h_poly
    hx, hy = h.dx(), h.dy()
    disp = {}
    for t in t_grid:
        oval = trace_oval(spec, t, annulus)
        T0 = float(numerics._period_estimate(oval))
        (x0, y0), direction = numerics._start_and_direction(annulus, oval)
        sign = oval.orientation
        for eps in eps_grid:
            def rhs(_s, u):
                x, y = u
                return [sign * (hy.eval_float(x, y) - eps * w.b.eval_float(x, y)),
                        sign * (-hx.eval_float(x, y) + eps * w.a.eval_float(x, y))]

            def section(_s, u):
                return u[1]
            section.terminal = True
            section.direction = direction
            sol1 = solve_ivp(rhs, (0.0, 0.35 * T0), [x0, y0], method="DOP853",
                             rtol=1e-12, atol=1e-12)
            sol2 = solve_ivp(rhs, (0.0, 4.0 * T0), sol1.y[:, -1], method="DOP853",
                             rtol=1e-12, atol=1e-12, events=section)
            xe, ye = sol2.y_events[0][0]
            disp[(t, eps)] = h.eval_float(xe, ye) - t
    return disp


def _fitted_k(disp, t_grid, eps_grid):
    slopes = [np.polyfit(np.log(eps_grid), np.log([abs(disp[(t, e)]) for e in eps_grid]), 1)[0]
              for t in t_grid]
    return int(round(np.median([round(s) for s in slopes])))


_FINE = [2.5e-4, 5e-4, 1e-3, 2e-3]


@pytest.mark.parametrize("spec,annulus,w,t_grid,eps_grid", [
    (EIGHT_LOOP, "interior_right", OneForm(Y, WeightedPoly.zero()), [0.06, 0.1, 0.15], None),
    (EIGHT_LOOP, "exterior", OneForm(Y**3, WeightedPoly.zero()), [0.45, 0.7, 1.0], _FINE),
    (DOUBLE_HETEROCLINIC, "main", OneForm(Y, WeightedPoly.zero()), [-0.18, -0.12, -0.08],
     None),
    (GLOBAL_CENTER, "main", OneForm(Y**3, WeightedPoly.zero()), [0.45, 0.7, 1.0], _FINE),
    (EIGHT_LOOP, "interior_left", OneForm(X * Y, Fraction(1, 3) * Y**2), [0.05, 0.2], None),
])
def test_stacked_shooting_matches_per_pair_solves(spec, annulus, w, t_grid, eps_grid):
    samp = shooting_oracle(spec, w, annulus, t_grid, eps_grid=eps_grid)
    eps_grid = eps_grid or [1e-3, 2e-3, 4e-3, 8e-3]
    ref = _per_pair_displacements(spec, w, annulus, t_grid, eps_grid)
    assert samp.displacements.keys() == ref.keys()
    for key, d in ref.items():
        assert abs(samp.displacements[key] - d) <= 1e-8 * abs(d), key
    assert samp.fitted_k == _fitted_k(ref, t_grid, eps_grid) == 1


def test_stacked_shooting_on_the_triangle_third_order():
    res = d4_chain(paper_form())
    samp = shooting_oracle(D4_TRIANGLE, paper_form(), "main", [-3.0, -2.0, -1.0],
                           symbolic=res.m3)
    assert samp.fitted_k == 3
    for sv, bv in zip(samp.symbolic, samp.shooting):
        assert abs(sv - bv) < 1e-3 * abs(sv)
