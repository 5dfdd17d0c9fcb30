"""algebra.PeriodCombination, the one type of every generating function:
exact and float evaluation, the vector call, is_zero and row."""
import functools
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, seed, settings, strategies as st

from melnikov.algebra import EIGHT_LOOP, GLOBAL_CENTER, OneForm, WeightedPoly
from melnikov.reduction import GeneratingFn, francoise_chain, m1_zero_forms
from melnikov.triangle import D4GenFn
from melnikov.upoly import Poly, RatFn

_frac = st.fractions(min_value=-9, max_value=9, max_denominator=8)
_coef = st.one_of(st.just(Fraction(0)), _frac)
_d4 = st.builds(D4GenFn, _coef, _coef, _coef, _coef)
_poly = st.lists(_coef, max_size=4).map(Poly)
# a GeneratingFn drawn field by field, zero polynomials included
_quartic_fields = st.builds(GeneratingFn, st.integers(1, 3), st.just("exterior"),
                            st.just("eight-loop"), st.just(3), st.integers(0, 2),
                            _poly, _poly, _poly)
_CASES = ((EIGHT_LOOP, "exterior"), (EIGHT_LOOP, "interior_right"), (GLOBAL_CENTER, "main"))


@functools.cache
def _forms(constrained):
    """Degree-3 forms: the M1 = 0 family (chains of order 2 and 3, with
    poles), or the monomial forms."""
    if constrained:
        return m1_zero_forms(EIGHT_LOOP, 3)
    zero = WeightedPoly.zero()
    return [form for i in range(4) for j in range(4 - i)
            for form in (OneForm(WeightedPoly.mono(1, i, j), zero),
                         OneForm(zero, WeightedPoly.mono(1, i, j)))]


@st.composite
def _quartic_chain(draw):
    """The generating function of a quartic chain on a random form."""
    forms = _forms(draw(st.booleans()))
    coefs = draw(st.lists(_coef, min_size=len(forms), max_size=len(forms)))
    w = OneForm.zero()
    for c, form in zip(coefs, forms):
        w = w + form.scale(c)
    assume(not w.is_zero())
    gf = francoise_chain(w, *draw(st.sampled_from(_CASES)), k_max=3).genfn
    assume(gf is not None)
    return gf


_genfns = st.one_of(_d4, _quartic_fields, _quartic_chain())


def _exact(gf, values, t):
    """The exact value and the sum of the absolute values of its terms."""
    terms = [c * t ** p * v for lau, v in zip(gf.coeffs, values) for p, c in lau.items()]
    return sum(terms, Fraction(0)), sum(map(abs, terms), Fraction(0))


@seed(1295)
@settings(max_examples=60, deadline=None)
@given(gf=_genfns, t=_frac.filter(bool), values=st.lists(_frac, min_size=3, max_size=3))
def test_scalar_combine_is_the_exact_value(gf, t, values):
    """Float combine at a rational level and rational period values is the
    exact Fraction value, to 1e-14 of the size of its terms (a relative
    bound on the value itself cannot hold where the terms cancel)."""
    exact, size = _exact(gf, values, t)
    assert abs(Fraction(gf.combine([float(v) for v in values], float(t))) - exact) \
        <= Fraction(1, 10 ** 14) * size


@seed(1295)
@settings(max_examples=60, deadline=None)
@given(gf=_genfns, data=st.data())
def test_array_combine_is_the_scalar_combine(gf, data):
    levels = data.draw(st.lists(st.floats(0.05, 9.0), min_size=1, max_size=6))
    values = data.draw(st.lists(st.floats(-50.0, 50.0), min_size=3 * len(levels),
                                max_size=3 * len(levels)))
    t, v = np.array(levels), np.array(values).reshape(3, len(levels))
    vector = np.broadcast_to(gf.combine(v, t), t.shape)
    assert vector.tolist() == [gf.combine(v[:, i].tolist(), level)
                               for i, level in enumerate(levels)]


@seed(1295)
@settings(max_examples=60, deadline=None)
@given(gf=_genfns)
def test_is_zero_iff_every_coefficient_vanishes(gf):
    fields = ((gf.c_m1, gf.c0, gf.c1, gf.cstar) if isinstance(gf, D4GenFn)
              else (c for p in (gf.alpha, gf.beta, gf.gamma) for c in p.coeffs))
    assert gf.is_zero() == (not any(fields))
    assert all(c for lau in gf.coeffs for c in lau.values())


def test_the_zero_triangle_genfn_is_zero():
    zero = Fraction(0)
    assert D4GenFn(zero, zero, zero, zero).is_zero()
    assert not D4GenFn(zero, zero, Fraction(1), zero).is_zero()


@seed(1295)
@settings(max_examples=60, deadline=None)
@given(gf=_d4)
def test_triangle_row(gf):
    t = RatFn(Poly.x())
    assert gf.row() == (RatFn.const(gf.c_m1), gf.c0 + RatFn.const(gf.c1) / t,
                        RatFn.const(gf.cstar) / t)


@seed(1295)
@settings(max_examples=30, deadline=None)
@given(gf=_quartic_fields)
def test_quartic_row(gf):
    """row() is t^-pole_order (alpha, beta, gamma)."""
    pole = RatFn(Poly.monomial(1, gf.pole_order))
    assert gf.row() == tuple(RatFn(p) / pole for p in (gf.alpha, gf.beta, gf.gamma))
