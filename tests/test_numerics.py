import math
from fractions import Fraction

import numpy as np
import pytest

from melnikov.algebra import (
    WeightedPoly, OneForm, EIGHT_LOOP, DOUBLE_HETEROCLINIC, GLOBAL_CENTER,
    D4_TRIANGLE, ISTAR, Period, d, sigma,
)
from melnikov.numerics import (
    trace_oval, integrate_form, moment, period_values, eval_genfn, phi_check,
    shooting_oracle, count_zeros, zero_bound, fit_istar_asymptotics,
    NumericsError, _period_estimate,
)
from melnikov.reduction import francoise_chain
from melnikov.triangle import d4_chain, gauss_manin

X = WeightedPoly.var_x()
Y = WeightedPoly.var_y()


def test_trace_oval_levels_and_geometry():
    ov = trace_oval(EIGHT_LOOP, 0.125, "interior_right")
    assert ov.x_lo > 0
    for spec, annulus, t in ((EIGHT_LOOP, "interior_left", 0.125),
                             (EIGHT_LOOP, "interior_right", 0.125),
                             (EIGHT_LOOP, "exterior", 1.0),
                             (DOUBLE_HETEROCLINIC, "main", -0.1),
                             (GLOBAL_CENTER, "main", 1.0),
                             (D4_TRIANGLE, "main", -2.0)):
        for x, y in trace_oval(spec, t, annulus).points():
            assert abs(spec.h_poly.eval_float(x, y) - t) < 1e-12
    ov = trace_oval(EIGHT_LOOP, 1.0, "exterior")
    assert ov.x_lo == -ov.x_hi
    ov = trace_oval(D4_TRIANGLE, -2.0, "main")
    assert 0 < ov.x_lo < 1 < ov.x_hi < 3


def test_trace_oval_rejects_bad_levels():
    with pytest.raises(NumericsError):
        trace_oval(EIGHT_LOOP, 0.3, "interior_right")
    with pytest.raises(NumericsError):
        trace_oval(D4_TRIANGLE, 0.5, "main")
    with pytest.raises(NumericsError):
        trace_oval(EIGHT_LOOP, 0.25, "exterior")


_ALL_ANNULI = [(EIGHT_LOOP, "interior_left", 0.125), (EIGHT_LOOP, "interior_right", 0.125),
               (EIGHT_LOOP, "exterior", 1.0), (DOUBLE_HETEROCLINIC, "main", -0.1),
               (GLOBAL_CENTER, "main", 1.0), (D4_TRIANGLE, "main", -2.0)]


@pytest.mark.parametrize("spec,annulus,t", _ALL_ANNULI)
def test_period_kernel_matches_the_one_form_path(spec, annulus, t):
    """Period.moment(k) agrees with the two-arc quadrature of sigma(k) = x^k y dx
    (relative to the largest of the four moments: the odd ones vanish on the
    symmetric annuli)."""
    ov = trace_oval(spec, t, annulus)
    kernel = [integrate_form(ov, Period.moment(k)) for k in range(4)]
    forms = [integrate_form(ov, sigma(k)) for k in range(4)]
    scale = max(map(abs, forms))
    for a, b in zip(kernel, forms):
        assert abs(a - b) < 1e-12 * scale


def test_period_key_rejects_even_y_powers_and_singular_ovals():
    ov = trace_oval(EIGHT_LOOP, 1.0, "exterior")
    with pytest.raises(ValueError):
        integrate_form(ov, Period.moment(0, ypow=2))
    for period in (Period.moment(-1), ISTAR):
        with pytest.raises(NumericsError):
            integrate_form(ov, period)


def test_quadrature_stability_under_tolerance_halving():
    ov = trace_oval(EIGHT_LOOP, 1.0, "exterior")
    a = integrate_form(ov, Period.moment(0), epsrel=1e-11)
    b = integrate_form(ov, Period.moment(0), epsrel=5e-12)
    assert abs(a - b) < 1e-10 * abs(a)


@pytest.mark.parametrize("spec,annulus,ts", [
    (EIGHT_LOOP, "exterior", np.linspace(0.3, 5.0, 10)),
    (DOUBLE_HETEROCLINIC, "main", np.linspace(-0.24, -0.02, 10)),
    (GLOBAL_CENTER, "main", np.linspace(0.3, 5.0, 10)),
])
def test_odd_moment_vanishes_on_symmetric_annuli(spec, annulus, ts):
    for t in ts:
        ov = trace_oval(spec, float(t), annulus)
        assert abs(integrate_form(ov, Period.moment(1))) < 1e-10


def test_triangle_moment_recursion_and_equality():
    for t in (-3.0, -2.0, -1.0):
        ov = trace_oval(D4_TRIANGLE, t, "main")
        I = {k: integrate_form(ov, Period.moment(k)) for k in range(0, 4)}
        Im1 = integrate_form(ov, Period.moment(-1))
        scale = max(abs(v) for v in I.values())
        assert abs(I[1] - I[0]) < 1e-8 * scale
        for k in (1, 2):
            lhs = (2 * k + 6) * I[k + 1]
            rhs = (12 * k + 18) * I[k] - 18 * k * I[k - 1] \
                - (2 * k - 3) * t * (I[k - 2] if k >= 2 else Im1)
            assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))


def test_derivative_consistency_and_period_system():
    G = gauss_manin()
    for t in (-3.0, -2.5, -2.0, -1.5, -1.0):
        ov = trace_oval(D4_TRIANGLE, t, "main")
        Iv = [integrate_form(ov, Period.moment(-1)),
              integrate_form(ov, Period.moment(0)),
              integrate_form(ov, ISTAR)]
        # on f = t, d/dt y = 1/(2 x y): the derivatives of the basis periods
        dIv = [integrate_form(ov, Period(((-2, 0.5),), 0, -1)),
               integrate_form(ov, Period(((-1, 0.5),), 0, -1)),
               integrate_form(ov, Period(((0, 0.5), (-1, -0.5)), 1, -1))]
        h = 1e-5
        fd = (integrate_form(trace_oval(D4_TRIANGLE, t + h, "main"), Period.moment(0))
              - integrate_form(trace_oval(D4_TRIANGLE, t - h, "main"), Period.moment(0))) / (2 * h)
        assert abs(fd - dIv[1]) < 1e-6 * abs(fd)
        for i in range(3):
            pred = sum(G[i][j](t) * Iv[j] for j in range(3))
            assert abs(pred - dIv[i]) < 1e-9 * max(1.0, abs(dIv[i]))


def test_a3_derivative_identity():
    # d/dt of the area moment equals the period-type integral of dx/y
    t = 1.0
    ov = trace_oval(EIGHT_LOOP, t, "exterior")
    gl = integrate_form(ov, Period.moment(0, ypow=-1))
    h = 1e-6
    fd = (integrate_form(trace_oval(EIGHT_LOOP, t + h, "exterior"), Period.moment(0))
          - integrate_form(trace_oval(EIGHT_LOOP, t - h, "exterior"), Period.moment(0))) / (2 * h)
    assert abs(gl - fd) < 1e-6 * abs(fd)


@pytest.mark.parametrize("spec,t", [
    (EIGHT_LOOP, 1.0),
    (DOUBLE_HETEROCLINIC, -0.1),
    (GLOBAL_CENTER, 1.0),
])
def test_phi_single_valued_and_identities(spec, t):
    rep = phi_check(spec, t)
    assert rep.max_jump < 0.02
    assert abs(rep.endpoint_values[0]) < 1e-10
    assert abs(rep.endpoint_values[1]) < 1e-10
    assert rep.identity_residual < 1e-7


@pytest.mark.parametrize("spec", [EIGHT_LOOP, GLOBAL_CENTER])
def test_phi_check_catches_a_branch_cut(monkeypatch, spec):
    """The arctangent without its -(pi/2) sign(y) shift is cut along y = 0,
    which the largest jump between neighbouring points shows."""
    from melnikov import numerics

    def cut_phi(spec):
        r2 = math.sqrt(2)
        return lambda x, y: math.atan((x * x - spec.e) / (r2 * y)) / r2 if y else 0.0
    monkeypatch.setattr(numerics, "phi_function", cut_phi)
    assert phi_check(spec, 1.0).max_jump > 0.02


def test_shooting_interior_k1_matches_quadrature():
    w = OneForm(Y, WeightedPoly.zero())
    ts = [0.06, 0.1, 0.15]
    samp = shooting_oracle(EIGHT_LOOP, w, "interior_right", ts)
    assert samp.fitted_k == 1
    for t, est in zip(ts, samp.shooting):
        i0 = moment(EIGHT_LOOP, "interior_right", t, 0)
        assert abs(est - i0) < 1e-3 * abs(i0)


def test_shooting_exact_perturbation_noise_floor():
    F = (X**2 - 1) * Y
    w = d(F, EIGHT_LOOP)
    samp = shooting_oracle(EIGHT_LOOP, w, "interior_right", [0.1],
                           eps_grid=[1e-3, 2e-3, 4e-3, 8e-3])
    assert all(abs(v) < 1e-11 for v in samp.displacements.values())


@pytest.mark.slow
def test_shooting_triangle_third_order():
    w = OneForm(WeightedPoly.zero(),
                WeightedPoly.const(-2) + X - X**2 * Fraction(1, 2))
    res = d4_chain(w)
    samp = shooting_oracle(D4_TRIANGLE, w, "main", [-2.0], symbolic=res.m3)
    assert samp.fitted_k == 3
    assert abs(samp.shooting[0] - samp.symbolic[0]) < 1e-3 * abs(samp.symbolic[0])


def test_count_zeros_positive_function():
    res = francoise_chain(OneForm(Y, WeightedPoly.zero()), EIGHT_LOOP, "interior_right")
    zc = count_zeros(res.genfn, EIGHT_LOOP, "interior_right", (0.02, 0.23),
                     samples=60, bound=zero_bound(EIGHT_LOOP, "interior_right", 1, 1))
    assert zc.count == 0


def test_zero_bound_values():
    assert zero_bound(EIGHT_LOOP, "exterior", 5, 1) == 5
    assert zero_bound(EIGHT_LOOP, "exterior", 3, 2) == 7
    assert zero_bound(DOUBLE_HETEROCLINIC, "main", 3, 2) == 6
    assert zero_bound(EIGHT_LOOP, "exterior", 3, 3) == 9


def test_istar_asymptotics():
    fit = fit_istar_asymptotics()
    assert abs(fit["const"] - (-6.0)) < 0.02 * 6.0
    assert abs(fit["t_ln2"] - (-1.0 / 6.0)) < 0.05 / 6.0


def test_period_estimate_reasonable():
    ov = trace_oval(EIGHT_LOOP, 0.1, "interior_right")
    T = _period_estimate(ov)
    assert 1.0 < T < 20.0


_D4_BASIS = (Period.moment(-1), Period.moment(0), ISTAR)


def test_moment_caches_keyed_on_tolerances():
    """A value cached at loose tolerance is not returned for a later default call
    (the loose values below differ from the default ones in the last digits)."""
    from melnikov import numerics
    numerics._MOMENT_CACHE.clear()
    moment(EIGHT_LOOP, "exterior", 0.3, 0, epsabs=1e-3, epsrel=1e-3)
    period_values(D4_TRIANGLE, "main", -3.0, _D4_BASIS, epsabs=1e-4, epsrel=1e-4)
    after = moment(EIGHT_LOOP, "exterior", 0.3, 0), period_values(D4_TRIANGLE, "main", -3.0,
                                                                  _D4_BASIS)
    numerics._MOMENT_CACHE.clear()
    assert after == (moment(EIGHT_LOOP, "exterior", 0.3, 0),
                     period_values(D4_TRIANGLE, "main", -3.0, _D4_BASIS))


def test_period_cache_keeps_the_levels_inserted_last(monkeypatch):
    from melnikov import numerics
    monkeypatch.setattr(numerics, "MAX_CACHED_LEVELS", 8)
    numerics._MOMENT_CACHE.clear()
    levels = [0.3 + 0.1 * i for i in range(12)]
    for t in levels:
        moment(EIGHT_LOOP, "exterior", t, 0)
    (cache,) = numerics._MOMENT_CACHE.values()
    numerics._MOMENT_CACHE.clear()
    assert list(cache) == levels[-8:]


def test_period_values_use_the_requested_tolerance():
    """Each period is integrated at the tolerance asked for (the loose values
    differ from the default ones in the last digits)."""
    from melnikov import numerics
    numerics._MOMENT_CACHE.clear()
    loose = period_values(D4_TRIANGLE, "main", -3.0, _D4_BASIS, epsabs=1e-4, epsrel=1e-4)
    numerics._MOMENT_CACHE.clear()
    assert loose != period_values(D4_TRIANGLE, "main", -3.0, _D4_BASIS)
