"""Invariants that tie the symbolic chain, the periods and the monodromy."""
import math
from fractions import Fraction

import numpy as np
import pytest

from melnikov.algebra import (WeightedPoly, OneForm, D4_TRIANGLE, EIGHT_LOOP,
                              DOUBLE_HETEROCLINIC, GLOBAL_CENTER)
from melnikov.monodromy import W, pair_with_form, var, homology_class
from melnikov.numerics import (trace_oval, integrate_form, fit_m3_log2,
                               count_zeros, NumericsError, phi_function)
from melnikov.reduction import _ext_items_from_q, francoise_chain
from melnikov.triangle import (D4GenFn, d4_chain, normalized, reduce_full,
                               periods_of_residue, _genfn_from_periods)

X = WeightedPoly.var_x()
Y = WeightedPoly.var_y()


def paper_form():
    return OneForm(WeightedPoly.zero(),
                   WeightedPoly.const(-2) + X - X**2 * Fraction(1, 2))


def test_log_closure_identity_numeric_on_oval():
    """f dL = 2xy dx + (6x - 2x^2) dy holds at points of the triangle oval."""
    ov = trace_oval(D4_TRIANGLE, -2.0, "main")
    for theta in np.linspace(-1.3, 1.3, 10):
        x = ov.x_of(theta)
        y = ov.y_top(theta)
        f = x * (y * y - (x - 3) ** 2)
        eps = 1e-7

        def L(xx, yy):
            return math.log((3 - xx - yy) / (3 - xx + yy))
        lx = (L(x + eps, y) - L(x - eps, y)) / (2 * eps)
        ly = (L(x, y + eps) - L(x, y - eps)) / (2 * eps)
        assert abs(f * lx - 2 * x * y) < 1e-6
        assert abs(f * ly - (6 * x - 2 * x * x)) < 1e-6


def test_log_shift_invariance_of_triangle_chain():
    """Replacing L by L + c reproduces the same generating function."""
    w = paper_form()
    base = d4_chain(w)
    c = Fraction(5, 3)
    q1_shift = base.q1.subst_log_shift(0, c)
    items2 = _ext_items_from_q(q1_shift, w)
    red2 = reduce_full(items2)
    assert periods_of_residue(red2.residue).is_zero()
    assert not red2.residue
    # the two second-stage coefficients may differ by a pure function of f
    # (the gauge freedom of the decomposition); here it is a constant
    q2_shift = normalized(red2.dh_coeff)
    diff = normalized(q2_shift - base.q2.subst_log_shift(0, c))
    assert all((m, j) == (0, 0) for poly in diff.entries.values() for (m, j, _) in poly.terms)
    items3 = _ext_items_from_q(q2_shift, w)
    red3 = reduce_full(items3)
    m3 = _genfn_from_periods(periods_of_residue(red3.residue))
    assert m3 == base.m3


def test_m3_log_square_coefficient():
    """Near the inner critical value M3 carries a log-squared term whose
    coefficient is -cstar/6, the visible obstruction to a cycle-integral
    representation."""
    gf = D4GenFn(Fraction(-3, 32), Fraction(0), Fraction(0), Fraction(1))
    fit = fit_m3_log2(gf)
    target = -float(gf.cstar) / 6.0
    assert abs(fit["ln2"] - target) < 0.05 * abs(target)


def test_variation_compatibility_with_pairing():
    """The second variation of the oval class pairs nontrivially."""
    v1 = var(W("d"), "d4_l0")
    v2 = var(v1, "d4_l0")
    assert homology_class(v2) == (0, 0, 0, 0)
    val = pair_with_form(v2)
    assert abs(val) > 1.0
    v3 = var(v2, "d4_l0")
    assert v3.is_identity()


def test_interior_left_annulus_chain_agrees():
    w = OneForm(Y**3 + X * Y**2, WeightedPoly.zero())
    right = francoise_chain(w, EIGHT_LOOP, "interior_right")
    left = francoise_chain(w, EIGHT_LOOP, "interior_left")
    assert right.k == left.k
    assert right.genfn.alpha == left.genfn.alpha
    assert right.genfn.beta == left.genfn.beta
    assert right.genfn.gamma == left.genfn.gamma
    # but the ovals differ: left sits in x < 0
    ov = trace_oval(EIGHT_LOOP, 0.1, "interior_left")
    assert ov.x_hi < 0


def test_shooting_left_interior_annulus():
    from melnikov.numerics import shooting_oracle, moment
    w = OneForm(Y, WeightedPoly.zero())
    samp = shooting_oracle(EIGHT_LOOP, w, "interior_left", [0.1])
    assert samp.fitted_k == 1
    i0 = moment(EIGHT_LOOP, "interior_left", 0.1, 0)
    assert i0 > 0
    assert abs(samp.shooting[0] - i0) < 1e-3 * i0


def test_variant_exterior_chain_shapes():
    import random
    rng = random.Random(4)
    for spec in (DOUBLE_HETEROCLINIC, GLOBAL_CENTER):
        for _ in range(4):
            terms = {}
            for _ in range(5):
                i, j = rng.randrange(0, 4), rng.randrange(0, 4)
                if i + j <= 3:
                    terms[(i, j, 0)] = rng.randrange(-5, 6)
            w = OneForm(WeightedPoly(terms), WeightedPoly.zero())
            if w.is_zero():
                continue
            res = francoise_chain(w, spec, "main", k_max=4)
            if res.genfn is not None:
                res.genfn.check_shape()
                assert res.genfn.beta.is_zero()


def test_exterior_second_order_value_by_direct_quadrature():
    """Integrate q1 * w along the oval with the actual log primitive and
    compare against the symbolic second generating function."""
    from melnikov.numerics import integrate_ext_product, eval_genfn
    from melnikov.reduction import m1_zero_forms
    import random
    rng = random.Random(77)
    family = m1_zero_forms(EIGHT_LOOP, 3)
    res = None
    for _ in range(20):
        w = OneForm(WeightedPoly.zero(), WeightedPoly.zero())
        for g in family:
            c = Fraction(rng.randrange(-3, 4))
            if c:
                w = w + g.scale(c)
        if w.is_zero():
            continue
        res = francoise_chain(w, EIGHT_LOOP, "exterior", k_max=4)
        if res.k == 2:
            break
    assert res is not None and res.k == 2
    q1 = res.steps[0].q
    for t in (0.5, 0.9, 1.4):
        ov = trace_oval(EIGHT_LOOP, t, "exterior")
        direct = integrate_ext_product(ov, q1, w)
        symbolic = eval_genfn(res.genfn, EIGHT_LOOP, "exterior", t)
        assert abs(direct - symbolic) < 1e-8 * max(1.0, abs(symbolic))


def test_count_zeros_rejects_identically_zero():
    gf = D4GenFn(Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    with pytest.raises(NumericsError):
        count_zeros(gf, D4_TRIANGLE, "main", (-3.0, -1.0), samples=20)


def test_critical_values_recorded():
    assert EIGHT_LOOP.critical_values == (0, Fraction(1, 4))
    assert DOUBLE_HETEROCLINIC.critical_values == (Fraction(-1, 4), 0)
    assert D4_TRIANGLE.critical_values == (-4, 0)


def test_phi_matches_universal_differential():
    """d phi = (2xy dx - (x^2 - e) dy)/(4H) for each closure."""
    for spec, pt in ((EIGHT_LOOP, (1.3, 0.7)), (DOUBLE_HETEROCLINIC, (0.3, 0.2)),
                     (GLOBAL_CENTER, (0.4, 0.5))):
        phi = phi_function(spec)
        x, y = pt
        h = spec.h_poly.eval_float(x, y)
        eps = 1e-7
        px = (phi(x + eps, y) - phi(x - eps, y)) / (2 * eps)
        py = (phi(x, y + eps) - phi(x, y - eps)) / (2 * eps)
        assert abs(px - 2 * x * y / (4 * h)) < 1e-7
        assert abs(py + (x * x - spec.e) / (4 * h)) < 1e-7


@pytest.mark.parametrize("spec, annulus, w", [
    (EIGHT_LOOP, "interior_right", OneForm(Y, WeightedPoly.zero())),
    (EIGHT_LOOP, "exterior", OneForm(Y**3, WeightedPoly.zero())),
    (D4_TRIANGLE, "main", OneForm(Y, WeightedPoly.zero())),
])
def test_chain_checks_every_reduction_with_the_oracle(monkeypatch, spec, annulus, w):
    """The one chain loop passes each family's reduction through the exact
    oracle: a reduction that lost its residue is caught by the oracle and by
    nothing else."""
    from dataclasses import replace
    from melnikov import reduction, triangle
    from melnikov.reduction import ShapeError
    run, full = reduction.Reducer.run, triangle.reduce_full
    monkeypatch.setattr(reduction.Reducer, "run",
                        lambda self, items: replace(run(self, items), residue={}))
    monkeypatch.setattr(triangle, "reduce_full", lambda items: replace(full(items), residue={}))
    with pytest.raises(ShapeError, match="does not reconstruct"):
        francoise_chain(w, spec, annulus, k_max=3)
    monkeypatch.setattr(reduction, "check_reconstruction", lambda ring, items, red: None)
    assert francoise_chain(w, spec, annulus, k_max=3).genfn is None


@pytest.mark.parametrize("spec, annulus, w", [
    (EIGHT_LOOP, "exterior", OneForm(Y**3, WeightedPoly.zero())),
    (D4_TRIANGLE, "main", OneForm(Y, WeightedPoly.zero())),
    (D4_TRIANGLE, "main", paper_form()),
])
def test_every_chain_result_is_a_generating_function(spec, annulus, w):
    """GeneratingFn, D4Periods (a nonzero triangle M1) and D4GenFn (M3)
    are PeriodCombinations, the type that the numerics and the CLI read."""
    gf = francoise_chain(w, spec, annulus).genfn
    assert gf.k in (1, 3) and isinstance(gf.basis, tuple)
    values = [1.0] * len(gf.basis)
    assert math.isfinite(gf.combine(values, -2.0 if spec is D4_TRIANGLE else 2.0))
    assert isinstance(gf.to_json(), dict)
