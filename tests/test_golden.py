"""Frozen serialized outputs for the worked examples."""
import json
from fractions import Fraction
from pathlib import Path

from melnikov.algebra import WeightedPoly, OneForm, EIGHT_LOOP, sigma
from melnikov.reduction import decompose, francoise_chain
from melnikov.triangle import d4_canonical, d4_chain, d4_fuchs_ode, d4_local_exponents

GOLDEN = Path(__file__).parent / "golden"
Y = WeightedPoly.var_y()
X = WeightedPoly.var_x()


def test_reduction_golden():
    want = json.loads((GOLDEN / "reduction_golden.json").read_text())
    assert decompose(sigma(1), EIGHT_LOOP).to_json() == want["decompose_sigma1"]
    assert decompose(OneForm(Y**3, WeightedPoly.zero()),
                     EIGHT_LOOP).to_json() == want["decompose_y3"]
    assert francoise_chain(OneForm(Y**3, WeightedPoly.zero()), EIGHT_LOOP,
                           "exterior").genfn.to_json() == want["chain_y3_exterior"]
    assert francoise_chain(OneForm(Y, WeightedPoly.zero()), EIGHT_LOOP,
                           "interior_right").genfn.to_json() == want["chain_y_interior"]


def test_triangle_golden():
    want = json.loads((GOLDEN / "triangle_golden.json").read_text())
    w = OneForm(WeightedPoly.zero(),
                WeightedPoly.const(-2) + X - X**2 * Fraction(1, 2))
    res = d4_chain(w)
    assert d4_canonical(res.Q1) == want["Q1"]
    assert d4_canonical(res.q1) == want["q1"]
    assert d4_canonical(res.q2) == want["q2"]
    assert res.m3.to_json() == want["M3"]
    ode = d4_fuchs_ode(res.m3)
    assert ode.to_json() == want["ode"]
    assert ode.render() == want["ode_text"]
    roots, _ = d4_local_exponents(ode, 0)
    assert [str(r) for r in roots] == want["exponents_at_0"]
