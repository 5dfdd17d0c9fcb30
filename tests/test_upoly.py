from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from melnikov.upoly import Poly, RatFn, poly_gcd, exact_nullspace, ratfn_nullvector

coeffs = st.lists(st.fractions(min_value=-9, max_value=9), max_size=5)


@given(coeffs, coeffs)
def test_divmod_reconstructs(a, b):
    pa, pb = Poly(a), Poly(b)
    if pb.is_zero():
        with pytest.raises(ZeroDivisionError):
            pa.divmod(pb)
        return
    q, r = pa.divmod(pb)
    assert q * pb + r == pa
    assert r.is_zero() or r.degree < pb.degree


@given(coeffs, coeffs)
def test_gcd_divides_both(a, b):
    pa, pb = Poly(a), Poly(b)
    g = poly_gcd(pa, pb)
    if g.is_zero():
        assert pa.is_zero() and pb.is_zero()
        return
    assert (pa % g).is_zero()
    assert (pb % g).is_zero()


@given(coeffs, st.fractions(min_value=-5, max_value=5))
def test_shift_evaluates_consistently(a, s):
    p = Poly(a)
    x = Fraction(3, 7)
    assert p.shift(s).eval_exact(x) == p.eval_exact(x + s)


def test_rational_roots_with_multiplicity():
    # (t + 1)^2 (2t - 3)
    p = Poly([1, 2, 1]) * Poly([-3, 2])
    roots, rem = p.rational_roots()
    assert sorted(roots) == [Fraction(-1), Fraction(-1), Fraction(3, 2)]
    assert rem.degree == 0


def test_ratfn_reduction():
    t = Poly([0, 1])
    r = RatFn(t * t - Poly.const(1), t - Poly.const(1))
    assert r.num == t + Poly.const(1)
    assert r.den == Poly.const(1)


def test_exact_nullspace_small():
    # x + y = 0 over three unknowns
    basis = exact_nullspace([[1, 1, 0]], 3)
    assert len(basis) == 2
    for v in basis:
        assert v[0] + v[1] == 0


def test_ratfn_nullvector_simple():
    t = Poly([0, 1])
    one = RatFn.const(1)
    # rows: (1, t), (t, t^2), (0, 1): first two proportional
    rows = [[one, RatFn(t)], [RatFn(t), RatFn(t * t)]]
    # embed in 3-vectors to use the helper
    z = RatFn.const(0)
    rows3 = [[one, RatFn(t), z], [RatFn(t), RatFn(t * t), z], [z, z, one]]
    p = ratfn_nullvector(rows3)
    # p0 * row0 + p1 * row1 + p2 * row2 = 0 forces p2 = 0 and p0 = -t p1
    assert p[2].is_zero()
    assert p[0] == -(p[1] * t)


_roots = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6), max_size=4)


@given(roots=_roots, b=st.integers(-5, 5), c=st.integers(1, 6),
       scale=st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))
def test_rational_roots_of_linear_factors_times_an_irreducible_quadratic(roots, b, c, scale):
    """t^2 + b t + c with b^2 < 4c has no real root, so rational_roots
    returns exactly the linear factors' roots and the scaled quadratic."""
    assume(b * b < 4 * c)
    quadratic = Poly([c, b, 1]) * scale
    p = quadratic
    for r in roots:
        p = p * Poly([-r, 1])
    found, rem = p.rational_roots()
    assert sorted(found) == sorted(roots)
    assert rem == quadratic
