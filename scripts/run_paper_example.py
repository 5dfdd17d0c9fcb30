#!/usr/bin/env python3
"""End-to-end triangle experiment: chain, equation, exponents, asymptotics."""
from fractions import Fraction

import numpy as np

from melnikov.algebra import OneForm, WeightedPoly, D4_TRIANGLE
from melnikov.numerics import (d4_ode_residual, fit_istar_asymptotics,
                               shooting_oracle)
from melnikov.triangle import d4_canonical, d4_chain, d4_fuchs_ode, d4_local_exponents


def main():
    x = WeightedPoly.var_x()
    w = OneForm(WeightedPoly.zero(),
                WeightedPoly.const(-2) + x - x**2 * Fraction(1, 2))
    res = d4_chain(w)
    print("Q1 =", d4_canonical(res.Q1))
    print("q1 =", d4_canonical(res.q1))
    print("q2 =", d4_canonical(res.q2))
    print("M3 :", res.m3.to_json())
    ode = d4_fuchs_ode(res.m3)
    print("equation:", ode.render())
    roots, _ = d4_local_exponents(ode, 0)
    print("exponents at 0:", roots)
    worst = d4_ode_residual(res.m3, ode, np.linspace(-3.5, -0.5, 15))
    print(f"finite-difference equation residual: {worst:.2e}")
    fit = fit_istar_asymptotics()
    print(f"log-period asymptotics: const {fit['const']:.4f}, "
          f"t ln^2 t coefficient {fit['t_ln2']:.5f}")
    samp = shooting_oracle(D4_TRIANGLE, w, "main", [-3.0, -2.0, -1.0],
                           symbolic=res.m3)
    print(f"shooting order {samp.fitted_k}; values vs symbolic:")
    for t, sv, bv in zip(samp.t_grid, samp.symbolic, samp.shooting):
        print(f"  t={t:+.1f}  symbolic {sv:+.8f}  shooting {bv:+.8f}")


if __name__ == "__main__":
    main()
