import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from melnikov import cli
from melnikov.cli import format_one_form, main, parse_one_form, ValidationError
from melnikov.algebra import D4_TRIANGLE, OneForm, Period, WeightedPoly
from melnikov.numerics import integrate_form, trace_oval

X = WeightedPoly.var_x()
Y = WeightedPoly.var_y()


def run(capsys, tmp_path, *argv):
    code = main(["--out", str(tmp_path)] + list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_one_form_grammar():
    w = parse_one_form("y^3 dx")
    assert w.a == Y**3 and w.b.is_zero()
    w = parse_one_form("1/2 x^2 y dx - 1/3 y dy")
    assert w.a == X**2 * Y * Fraction(1, 2)
    assert w.b == Y * Fraction(-1, 3)
    w = parse_one_form("-2 dy + 1 x dy - 1/2 x^2 dy")
    assert w.b == WeightedPoly.const(-2) + X - X**2 * Fraction(1, 2)
    with pytest.raises(ValidationError):
        parse_one_form("z dx")


def test_parse_one_form_unsigned_coefficient():
    w = parse_one_form("-x dy")
    assert w.a.is_zero() and w.b == -X
    w = parse_one_form("y dx - x dy")
    assert w.a == Y and w.b == -X
    w = parse_one_form("+ 2 * x^2 y dx - y^3 dx")
    assert w.a == X**2 * Y * 2 - Y**3 and w.b.is_zero()
    # the benchmark's explicit unit coefficient still parses
    assert parse_one_form("1 x dy") == parse_one_form("x dy")


@pytest.mark.parametrize("text", ["1/0 dx", "x^99999 dx", "y dx x dy", "y dx -", "x^ dx"])
def test_parse_one_form_rejects(text):
    with pytest.raises(ValidationError):
        parse_one_form(text)


def test_parse_one_form_exponent_cap():
    from melnikov.cli import MAX_EXPONENT
    assert parse_one_form(f"x^{MAX_EXPONENT} dx").a == X**MAX_EXPONENT
    with pytest.raises(ValidationError):
        parse_one_form(f"y^{MAX_EXPONENT + 1} dy")


_exp = st.integers(0, cli.MAX_EXPONENT)
_poly = st.dictionaries(st.tuples(_exp, _exp, st.just(0)),
                        st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
                        max_size=5).map(WeightedPoly)


@given(a=_poly, b=_poly)
def test_format_one_form_round_trips(a, b):
    w = OneForm(a, b)
    assert parse_one_form(format_one_form(w)) == w


def test_zero_denominator_is_validation_error(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "melnikov", "--ham", "eight-loop",
                    "--annulus", "exterior", "--form", "1/0 dx")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_melnikov_subcommand(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "melnikov", "--ham", "eight-loop",
                    "--annulus", "exterior", "--form", "y^3 dx")
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 1
    assert data["alpha"] == ["-3/7", "12/7"]
    assert data["gamma"] == ["3/7"]
    assert data["beta"] == []


def test_melnikov_reproducible(capsys, tmp_path):
    args = ("melnikov", "--ham", "eight-loop", "--annulus", "exterior",
            "--form", "y^3 dx")
    code1, _ = run(capsys, tmp_path, *args)
    jobs = list(tmp_path.iterdir())
    assert len(jobs) == 1
    first = (jobs[0] / "generating_fn.json").read_bytes()
    code2, _ = run(capsys, tmp_path, *args)
    assert (jobs[0] / "generating_fn.json").read_bytes() == first


def test_d4_paper_example(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "d4", "--paper-example")
    assert code == 0
    data = json.loads(out)
    assert data["q1"] == "L (-1/6)"
    assert data["M3"] == {"c_m1": "-3/32", "c0": "0", "c1": "0", "cstar": "1"}
    assert data["exponents_at_0"] == ["-1", "0", "0"]
    lead = data["ode"]["coeffs"][3]
    assert lead != []
    golden = json.loads((Path(__file__).parent / "golden" / "triangle_golden.json").read_text())
    assert data["ode"] == golden["ode"]
    assert data["ode_text"] == golden["ode_text"]


def test_decompose_subcommand(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "decompose", "--ham", "eight-loop", "--form", "y^3 dx")
    assert code == 0
    golden = json.loads((Path(__file__).parent / "golden" / "reduction_golden.json").read_text())
    assert json.loads(out) == golden["decompose_y3"]
    code, out = run(capsys, tmp_path, "decompose", "--ham", "d4-triangle", "--form", "y dx")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_pair_subcommand(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "pair", "--word", "[g1,g2]")
    assert code == 0
    data = json.loads(out)
    assert data["homology_class"] == [0, 0, 0, 0]
    assert abs(data["pairing"][0] + 4 * math.pi**2) < 1e-6
    code, out = run(capsys, tmp_path, "pair", "--word", "g1")
    data = json.loads(out)
    assert data["pairing"] is None
    assert "residue" in data["diagnosis"]


def test_sample_csv(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "sample", "--ham", "d4-triangle",
                    "--annulus", "main", "--t-grid", "-2.0", "--moments", "0,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,value,source"
    assert all(line.endswith("quadrature") for line in lines[1:])


def test_sample_negative_moments_are_their_own_periods(capsys, tmp_path):
    """--moments -2 integrates y dx / x^2, not y dx / x."""
    code, out = run(capsys, tmp_path, "sample", "--ham", "d4-triangle", "--annulus", "main",
                    "--t-grid=-2.0", "--moments=-2,-1,0")
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    ov = trace_oval(D4_TRIANGLE, -2.0, "main")
    assert values[0] != values[1]
    assert values[:2] == [integrate_form(ov, Period.moment(-2)),
                          integrate_form(ov, Period.moment(-1))]


def test_sample_at_a_loose_tolerance_returns_its_values(capsys, tmp_path):
    """quad's error estimate at --quad-tol 1e-3 is above 1e-6 |value| but
    inside the request, so the values come back close to the default run's."""
    argv = ("sample", "--ham", "eight-loop", "--annulus", "exterior", "--t-grid", "5.0")
    runs = []
    for extra in (("--quad-tol", "1e-3"), ()):
        code, out = run(capsys, tmp_path, *argv, *extra)
        assert code == 0, out
        runs.append([float(line.split(",")[1]) for line in out.splitlines()[1:]])
    loose, default = runs
    assert len(loose) == len(default) == 3
    assert all(math.isclose(a, b, rel_tol=1e-3, abs_tol=1e-12) for a, b in zip(loose, default))


def test_validation_exit_code(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "melnikov", "--ham", "eight-loop",
                    "--annulus", "nowhere", "--form", "y dx")
    assert code == 2
    data = json.loads(out)
    assert data["error"]["kind"] == "validation"


def test_melnikov_rejects_the_triangle_before_any_work(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "melnikov", "--ham", "d4-triangle",
                    "--annulus", "main", "--form", "1 y dx")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation"
    assert "d4 subcommand" in err["message"]
    assert not list(tmp_path.iterdir())


def test_shape_error_exit_code(capsys, tmp_path, monkeypatch):
    def broken(args, out_base):
        raise cli.ShapeError("q_1 has phi-degree 2 > 1")

    monkeypatch.setitem(cli._DISPATCH, "pair", broken)
    code, out = run(capsys, tmp_path, "pair", "--word", "d")
    assert code == 3
    assert json.loads(out)["error"] == {"kind": "shape", "message": "q_1 has phi-degree 2 > 1"}


def test_d4_nonzero_m1_is_a_result(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "d4", "--form", "y dx")
    assert code == 0
    data = json.loads(out)
    assert data == {"k": 1, "periods": {"i0": {"0": "1"}, "i_m1": {}, "istar": {}}}
    (job,) = tmp_path.iterdir()
    assert json.loads((job / "d4.json").read_text()) == data


def test_compare_on_a_triangle_form_with_nonzero_m1(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "compare", "--ham", "d4-triangle", "--annulus", "main",
                    "--form", "y dx", "--t-grid=-2.0")
    assert code == 0
    data = json.loads(out[out.index("{"):])
    assert data["symbolic_k"] == data["fitted_k"] == 1
    rows = [line.split(",") for line in out[:out.index("{")].splitlines()[1:]]
    symbolic = float(rows[0][1])
    shooting = float(rows[1][1])
    assert abs(symbolic - shooting) < 1e-3 * abs(symbolic)


def test_negative_option_values_in_the_space_separated_form(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "zeros", "--ham", "d4-triangle", "--annulus", "main",
                    "--form", "-2 dy + 1 x dy - 1/2 x^2 dy", "--interval", "-3:-1")
    assert code == 0
    assert out == '{\n  "bound": null,\n  "brackets": [],\n  "count": 0\n}\n'
    code, out = run(capsys, tmp_path, "sample", "--ham", "d4-triangle", "--annulus", "main",
                    "--t-grid", "-3,-2", "--moments", "0")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["-3.0", "-2.0"]


@pytest.mark.parametrize("argv", [
    ("melnikov", "--ham", "eight-loop", "--annulus", "bogus", "--form", "y dx"),
    ("zeros", "--ham", "eight-loop", "--annulus", "exterior", "--form", "y^3 dx",
     "--interval", "1"),
    ("compare", "--ham", "eight-loop", "--annulus", "exterior", "--form", "y^3 dx",
     "--t-grid", "0.5,abc"),
    ("sample", "--ham", "eight-loop", "--annulus", "exterior", "--t-grid", "0.5",
     "--moments", "0,one"),
    ("sample", "--ham", "eight-loop", "--annulus", "bogus", "--t-grid", "0.5"),
    ("melnikov", "--ham", "eight-loop", "--annulus", "exterior", "--form-file", "no/such/file"),
    # a chain that tests no order
    ("melnikov", "--ham", "eight-loop", "--annulus", "exterior", "--form", "y^3 dx",
     "--k-max", "0"),
    ("melnikov", "--ham", "eight-loop", "--annulus", "exterior", "--form", "y^3 dx",
     "--k-max=-1"),
    # too few epsilon values, or one outside (0, 1e-2]
    ("compare", "--ham", "eight-loop", "--annulus", "exterior", "--form", "y^3 dx",
     "--t-grid", "0.5", "--eps-grid", "0.1,0.2"),
    ("compare", "--ham", "eight-loop", "--annulus", "exterior", "--form", "y^3 dx",
     "--t-grid", "0.5", "--eps-grid", "1e-3,2e-3,4e-3,0.1"),
    # a zero scan needs two samples on a finite interval lo < hi
    *[("zeros", "--ham", "eight-loop", "--annulus", "exterior", "--form", "y^3 dx",
       "--interval", interval, "--samples", samples)
      for interval, samples in (("0.5:2", "-3"), ("0.5:2", "0"), ("0.5:2", "1"),
                                ("0.5:0.5", "400"), ("2:0.5", "400"), ("0.5:inf", "400"),
                                ("nan:2", "400"))],
    # a quadrature tolerance must be finite and positive
    ("sample", "--ham", "eight-loop", "--annulus", "exterior", "--t-grid", "0.5",
     "--quad-tol", "0"),
    ("sample", "--ham", "eight-loop", "--annulus", "exterior", "--t-grid", "0.5",
     "--quad-tol=-1"),
    ("sample", "--ham", "eight-loop", "--annulus", "exterior", "--t-grid", "0.5",
     "--quad-tol", "nan"),
    # an exponent needs its digits
    ("pair", "--word", "g1^"),
])
def test_bad_input_is_a_validation_error(capsys, tmp_path, argv):
    code, out = run(capsys, tmp_path, *argv)
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "validation"


def test_a_package_value_error_is_an_internal_error(capsys, tmp_path, monkeypatch):
    def broken(args, out_base):
        raise ValueError("matrix has full rank; no left null vector")

    monkeypatch.setitem(cli._DISPATCH, "pair", broken)
    code, out = run(capsys, tmp_path, "pair", "--word", "d")
    assert code == cli.EXIT_INTERNAL == 5
    err = json.loads(out)["error"]
    assert err["kind"] == "internal"
    assert err["message"].startswith("ValueError")


def test_numeric_error_exit_code(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "sample", "--ham", "eight-loop",
                    "--annulus", "exterior", "--t-grid", "0.1")
    assert code == 4


def test_compare_subcommand(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "compare", "--ham", "eight-loop",
                    "--annulus", "interior_right", "--form", "y dx",
                    "--t-grid", "0.1")
    assert code == 0
    assert "symbolic" in out and "shooting" in out
    tail = out[out.index("{"):]
    data = json.loads(tail)
    assert data["fitted_k"] == 1 and data["symbolic_k"] == 1


def test_zeros_subcommand(capsys, tmp_path):
    code, out = run(capsys, tmp_path, "zeros", "--ham", "eight-loop",
                    "--annulus", "interior_right", "--form", "y dx",
                    "--interval", "0.02:0.23", "--samples", "40")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 0
    assert data["bound"] == 0  # k=1, n=1: interior bound floor(3*0/2)


@pytest.mark.parametrize("ham, annulus, interval", [("eight-loop", "exterior", "0.3:1"),
                                                    ("d4-triangle", "main", "-3:-1")])
def test_zeros_of_an_integrable_form_is_a_validation_error(capsys, tmp_path, ham, annulus,
                                                            interval):
    code, out = run(capsys, tmp_path, "zeros", "--ham", ham, "--annulus", annulus,
                    "--form", "x dx", f"--interval={interval}")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["kind"] == "validation"
    assert "integrable to the tested order" in err["message"]


def test_unexpected_exception_is_an_internal_error(capsys, tmp_path, monkeypatch):
    def broken(args, out_base):
        raise AttributeError("'NoneType' object has no attribute 'n'")

    monkeypatch.setitem(cli._DISPATCH, "pair", broken)
    code, out = run(capsys, tmp_path, "pair", "--word", "d")
    assert code == cli.EXIT_INTERNAL == 5
    err = json.loads(out)["error"]
    assert err["kind"] == "internal"
    assert err["message"].startswith("AttributeError")
