import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from melnikov.algebra import (
    WeightedPoly, OneForm, EIGHT_LOOP, DOUBLE_HETEROCLINIC, GLOBAL_CENTER,
    D4_TRIANGLE, normal_form, d, wedge_with_dh, sigma,
)

X = WeightedPoly.var_x()
Y = WeightedPoly.var_y()
H = WeightedPoly.var_h()


def rand_poly(rng, max_wdeg=8, nterms=6, max_x=6):
    terms = {}
    for _ in range(nterms):
        i = rng.randrange(0, max_x + 1)
        j = rng.randrange(0, 5)
        k = rng.randrange(0, 3)
        if i + j + 2 * k > max_wdeg:
            continue
        terms[(i, j, k)] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
    return WeightedPoly(terms)


def test_x4_rewrite_eight_loop():
    p = normal_form(X**4, EIGHT_LOOP)
    expected = 4 * H - 2 * Y**2 + 2 * X**2 - 1
    assert p == expected


def test_x3_already_normal():
    assert normal_form(X**3, EIGHT_LOOP) == X**3


def test_x5y2_substitute_and_expand_oracle():
    # oracle: x * (x^4 rewrite) * y^2, expanded independently
    p = normal_form(X**5 * Y**2, EIGHT_LOOP)
    oracle = X * (4 * H - 2 * Y**2 + 2 * X**2 - 1) * Y**2
    assert p == normal_form(oracle, EIGHT_LOOP)
    # numeric agreement at random points with H substituted
    rng = random.Random(7)
    for _ in range(10):
        x = Fraction(rng.randrange(-8, 9), 4)
        y = Fraction(rng.randrange(-8, 9), 4)
        h = EIGHT_LOOP.h_poly.eval_exact(x, y, Fraction(0))
        assert p.eval_exact(x, y, h) == x**5 * y**2


@pytest.mark.parametrize("spec", [EIGHT_LOOP, DOUBLE_HETEROCLINIC, GLOBAL_CENTER])
def test_normal_form_idempotent_and_function_preserving(spec):
    rng = random.Random(hash(spec.name) & 0xFFFF)
    for _ in range(100):
        p = rand_poly(rng, max_wdeg=12, nterms=8, max_x=8)
        nf = normal_form(p, spec)
        assert normal_form(nf, spec) == nf
        assert nf.max_x_exponent() <= 3
        for _ in range(3):
            x = Fraction(rng.randrange(-6, 7), 3)
            y = Fraction(rng.randrange(-6, 7), 3)
            h = spec.h_poly.eval_exact(x, y, Fraction(0))
            assert nf.eval_exact(x, y, h) == p.eval_exact(x, y, h)


def test_normal_form_rejects_triangle():
    with pytest.raises(ValueError):
        normal_form(X**4, D4_TRIANGLE)


def test_normal_form_needs_a_unit_quartic_sign():
    """The integer x^4 tables divide by s, which must be +-1."""
    with pytest.raises(ValueError, match="s = [+]-1"):
        normal_form(X**4, replace(EIGHT_LOOP, s=2))


def test_d_of_closure_polynomial():
    g = (X**2 - 1) * Y * Fraction(1, 4)
    w = d(g, EIGHT_LOOP)
    assert w.a == X * Y * Fraction(1, 2)
    assert w.b == (X**2 - 1) * Fraction(1, 4)


def test_d_constant_is_zero():
    assert d(WeightedPoly.const(7), EIGHT_LOOP).is_zero()


def test_d_plain_monomial():
    w = d(X**2 * Y**2, EIGHT_LOOP)
    assert w.a == 2 * X * Y**2
    assert w.b == 2 * X**2 * Y


def test_d_is_derivation():
    rng = random.Random(21)
    for _ in range(10):
        p = rand_poly(rng, max_wdeg=6, nterms=4, max_x=4)
        q = rand_poly(rng, max_wdeg=6, nterms=4, max_x=4)
        lhs = d(p * q, EIGHT_LOOP)
        pe = p.subst_h(EIGHT_LOOP.h_poly)
        qe = q.subst_h(EIGHT_LOOP.h_poly)
        rhs = d(q, EIGHT_LOOP).mul_poly(pe) + d(p, EIGHT_LOOP).mul_poly(qe)
        assert (lhs.a - rhs.a).is_zero() and (lhs.b - rhs.b).is_zero()


def test_wedge_with_dh_examples():
    # dH itself wedges to zero
    dh = d(WeightedPoly.var_h(), EIGHT_LOOP)
    assert wedge_with_dh(dh, EIGHT_LOOP).is_zero()
    # y dx against dH = (x^3 - x) dx + y dy
    w = OneForm(Y, WeightedPoly.zero())
    assert wedge_with_dh(w, EIGHT_LOOP) == -(Y**2)
    # x dy
    w = OneForm(WeightedPoly.zero(), X)
    assert wedge_with_dh(w, EIGHT_LOOP) == X**4 - X**2


def test_canonical_string_deterministic():
    p = H * X + Y * 3 + WeightedPoly.const(Fraction(1, 2))
    assert p.canonical() == "1 x H + 3 y + 1/2"


@settings(max_examples=50, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 9))
def test_eval_matches_subst(a, b, den):
    p = X**2 * H + Y * Fraction(1, 3)
    x, y = Fraction(a, den), Fraction(b, den)
    h = EIGHT_LOOP.h_poly.eval_exact(x, y, Fraction(0))
    assert p.subst_h(EIGHT_LOOP.h_poly).eval_exact(x, y, Fraction(0)) == p.eval_exact(x, y, h)


def test_sigma_forms():
    s1 = sigma(1)
    assert s1.a == X * Y and s1.b.is_zero()
    assert s1.weighted_degree() == 2
