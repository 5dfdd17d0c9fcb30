"""Exact weighted-polynomial arithmetic tied to four planar Hamiltonians.

Polynomials live in Q[x, y, H] where H is a formal symbol standing for the
Hamiltonian; x and y carry weight one, H weight two.  For the quartic family
the rewrite of x^4 through H puts any polynomial into a normal form whose
x-exponents do not exceed three.  A Period names an oval integral that the
numerics evaluate, and a PeriodCombination is a row of Laurent polynomials
in the level t over a basis of Periods: the one type of every generating
function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .upoly import Poly, RatFn


class ValidationError(ValueError):
    """The caller's input is outside what the package accepts."""


def _frac(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


class WeightedPoly:
    """Polynomial in x, y and the formal symbol H with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for mono, c in terms.items():
                c = _frac(c)
                if c != 0:
                    t[tuple(mono)] = c
        self.terms = t

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls) -> "WeightedPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "WeightedPoly":
        return cls({(0, 0, 0): c})

    @classmethod
    def mono(cls, c, i=0, j=0, k=0) -> "WeightedPoly":
        return cls({(i, j, k): c})

    @classmethod
    def var_x(cls):
        return cls.mono(1, i=1)

    @classmethod
    def var_y(cls):
        return cls.mono(1, j=1)

    @classmethod
    def var_h(cls):
        return cls.mono(1, k=1)

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeightedPoly.const(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        r = WeightedPoly.__new__(WeightedPoly)
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = WeightedPoly.__new__(WeightedPoly)
        r.terms = {m: -c for m, c in self.terms.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeightedPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return WeightedPoly.zero()
            r = WeightedPoly.__new__(WeightedPoly)
            r.terms = {m: a * c for m, a in self.terms.items()}
            return r
        out = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                m = (i1 + i2, j1 + j2, k1 + k2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        r = WeightedPoly.__new__(WeightedPoly)
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = WeightedPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = WeightedPoly.const(other)
        return isinstance(other, WeightedPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ---------------------------------------------------------
    def weighted_degree(self) -> int:
        """max(i + j + 2k); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(i + j + 2 * k for (i, j, k) in self.terms)

    def max_x_exponent(self) -> int:
        return max((i for (i, _, _) in self.terms), default=0)

    def coefficient(self, i, j, k) -> Fraction:
        return self.terms.get((i, j, k), Fraction(0))

    def dx(self) -> "WeightedPoly":
        """Partial derivative in x, H treated as an independent symbol."""
        return WeightedPoly({(i - 1, j, k): c * i
                             for (i, j, k), c in self.terms.items() if i})

    def dy(self) -> "WeightedPoly":
        return WeightedPoly({(i, j - 1, k): c * j
                             for (i, j, k), c in self.terms.items() if j})

    def subst_h(self, h_poly: "WeightedPoly") -> "WeightedPoly":
        """Replace the symbol H by a concrete polynomial in x, y."""
        out = WeightedPoly.zero()
        powers = {0: WeightedPoly.const(1)}
        for (i, j, k), c in sorted(self.terms.items()):
            if k not in powers:
                kk = max(powers)
                p = powers[kk]
                while kk < k:
                    p = p * h_poly
                    kk += 1
                    powers[kk] = p
            out = out + powers[k] * WeightedPoly.mono(c, i, j)
        return out

    def eval_exact(self, x: Fraction, y: Fraction, h: Fraction) -> Fraction:
        acc = Fraction(0)
        for (i, j, k), c in self.terms.items():
            acc += c * x**i * y**j * h**k
        return acc

    def eval_float(self, x: float, y: float, h: float = None) -> float:
        return eval_float_terms(self.float_terms(), x, y, h)

    def float_terms(self) -> tuple:
        """((i, j, k, float(c)), ...) in term order, for eval_float_terms at
        many points.  Built fresh on each call: `terms` may change in place."""
        return tuple((i, j, k, float(c)) for (i, j, k), c in self.terms.items())

    # -- printing ----------------------------------------------------------
    def sorted_terms(self):
        """Lexicographic in (k, i, j) descending; the canonical print order."""
        return sorted(self.terms.items(), key=lambda t: (t[0][2], t[0][0], t[0][1]),
                      reverse=True)

    def canonical(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j, k), c in self.sorted_terms():
            body = "".join((f"x^{i} " if i not in (0, 1) else "x " if i else "",
                            f"y^{j} " if j > 1 else "y " if j == 1 else "",
                            f"H^{k} " if k > 1 else "H " if k == 1 else "")).strip()
            cs = f"{c.numerator}/{c.denominator}" if c.denominator != 1 else str(c.numerator)
            parts.append(f"{cs} {body}".strip() if body else cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"WeightedPoly({self.canonical()})"


def eval_float_terms(terms, x: float, y: float, h: float = None) -> float:
    """Float value at (x, y, H = h) of a polynomial given by its float_terms."""
    acc = 0.0
    for i, j, k, c in terms:
        acc += c * x**i * y**j * (h**k if k else 1.0)
    return acc


@dataclass(frozen=True)
class OneForm:
    """A dx + B dy with WeightedPoly coefficients."""

    a: WeightedPoly
    b: WeightedPoly

    @classmethod
    def zero(cls):
        return cls(WeightedPoly.zero(), WeightedPoly.zero())

    def __add__(self, other):
        return OneForm(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return OneForm(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return OneForm(-self.a, -self.b)

    def scale(self, c):
        return OneForm(self.a * c, self.b * c)

    def mul_poly(self, p: WeightedPoly):
        return OneForm(p * self.a, p * self.b)

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def weighted_degree(self) -> int:
        return max(self.a.weighted_degree(), self.b.weighted_degree())

    def canonical(self) -> str:
        return f"({self.a.canonical()}) dx + ({self.b.canonical()}) dy"

    def __repr__(self):
        return f"OneForm({self.canonical()})"


def sigma(k: int) -> OneForm:
    """The moment one-form x^k y dx."""
    return OneForm(WeightedPoly.mono(1, i=k, j=1), WeightedPoly.zero())


class Period(NamedTuple):
    """The oval integral of p(x) (ln x)^log y^ypow dx, p given as
    ((power, coeff), ...) with integer powers of either sign; the key of
    numerics.integrate_form and of its period cache.  ypow is odd: for an
    even power the two arcs of the oval cancel."""
    p: tuple
    log: int = 0
    ypow: int = 1

    @classmethod
    def moment(cls, k: int, ypow: int = 1) -> "Period":
        """x^k y^ypow dx; ypow = 1 is the period of sigma(k)."""
        return cls(((k, 1),), 0, ypow)


class PeriodCombination:
    """A generating function M_k(t) = row(t) . B(t), with k its order and B
    the periods in `basis` (Period keys).

    A subclass supplies `basis`, `k` and `coeffs`: one Laurent polynomial
    {power: Fraction} in t per basis period, with no zero entries.
    reduction.GeneratingFn, triangle.D4Periods and triangle.D4GenFn are
    views of this type that keep their own fields and to_json.
    """
    k: int | None
    basis: tuple
    coeffs: tuple

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def row(self) -> tuple:
        """The coefficients as rational functions of t, so that M = row . B."""
        out = []
        for lau in self.coeffs:
            low = min([0, *lau])
            out.append(RatFn(Poly([lau.get(p, 0) for p in range(low, max(lau, default=0) + 1)]),
                             Poly.monomial(1, -low)))
        return tuple(out)

    def combine(self, values, t):
        """M_k(t) from the float values of the basis periods at level t; for
        a 1-d array t, values holds one row of values per period."""
        total = 0.0
        for lau, v in zip(self.coeffs, values):
            if lau:
                low, acc = min(0, *lau), 0.0
                for p in range(max(lau), low - 1, -1):
                    acc = acc * t + float(lau.get(p, 0))
                total = total + acc / t ** -low * v
        return total


# ---------------------------------------------------------------------------
# Hamiltonian data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianSpec:
    """One of the four concrete Hamiltonians with its reduction data.

    For the quartic family the defining polynomial is
    H = y^2/2 + s (x^2 - e)^2 / 4 and the induced rewrite reads
    x^4 = 2 e x^2 - e^2 + (4 H - 2 y^2)/s (see `normal_form`).  The cubic
    triangle Hamiltonian carries no x^4 rewrite.
    """

    name: str
    kind: str                     # "quartic" or "cubic"
    h_poly: WeightedPoly          # expanded H(x, y), no H symbol
    s: int | None                 # sign of the quartic term
    e: int | None                 # well offset of the quartic
    critical_values: tuple
    annuli: tuple                 # mapping name -> (lo, hi) handled below
    sigma_intervals: dict
    sides: dict = field(default_factory=dict)   # interior annulus -> -1 left, +1 right

    def grad(self):
        return self.h_poly.dx(), self.h_poly.dy()

    def is_exterior(self, annulus: str) -> bool:
        return self.sigma_intervals[annulus][2] == "exterior"

    def sigma_range(self, annulus: str):
        lo, hi, _ = self.sigma_intervals[annulus]
        return lo, hi


def _build_quartic(name, s, e):
    # H = y^2/2 + s (x^2 - e)^2 / 4
    u = WeightedPoly.mono(1, i=2) + WeightedPoly.const(-e)
    h = WeightedPoly.mono(Fraction(1, 2), j=2) + u * u * Fraction(s, 4)
    return h


_INF = math.inf

EIGHT_LOOP = HamiltonianSpec(
    name="eight-loop", kind="quartic",
    h_poly=_build_quartic("eight-loop", 1, 1), s=1, e=1,
    critical_values=(Fraction(0), Fraction(1, 4)),
    annuli=("interior_left", "interior_right", "exterior"),
    sigma_intervals={
        "interior_left": (0.0, 0.25, "interior"),
        "interior_right": (0.0, 0.25, "interior"),
        "exterior": (0.25, _INF, "exterior"),
    },
    sides={"interior_left": -1, "interior_right": 1},
)

DOUBLE_HETEROCLINIC = HamiltonianSpec(
    name="double-heteroclinic", kind="quartic",
    h_poly=_build_quartic("double-heteroclinic", -1, 1), s=-1, e=1,
    critical_values=(Fraction(-1, 4), Fraction(0)),
    annuli=("main",),
    sigma_intervals={"main": (-0.25, 0.0, "exterior")},
)

GLOBAL_CENTER = HamiltonianSpec(
    name="global-center", kind="quartic",
    h_poly=_build_quartic("global-center", 1, -1), s=1, e=-1,
    critical_values=(Fraction(1, 4),),
    annuli=("main",),
    sigma_intervals={"main": (0.25, _INF, "exterior")},
)

# f = x (y^2 - (x-3)^2) = x y^2 - x^3 + 6 x^2 - 9 x
D4_TRIANGLE = HamiltonianSpec(
    name="d4-triangle", kind="cubic",
    h_poly=WeightedPoly({(1, 2, 0): 1, (3, 0, 0): -1, (2, 0, 0): 6, (1, 0, 0): -9}),
    s=None, e=None,
    critical_values=(Fraction(-4), Fraction(0)),
    annuli=("main",),
    sigma_intervals={"main": (-4.0, 0.0, "interior")},
)

SPECS = {s.name: s for s in (EIGHT_LOOP, DOUBLE_HETEROCLINIC, GLOBAL_CENTER, D4_TRIANGLE)}

# The triangle's log period I* = int y (x - 1) ln x dx.
ISTAR = Period(((1, 1), (0, -1)), log=1)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _mono_split(spec, i, j, memo):
    """Normal form of the monomial x^i y^j as {h_power: {(i', j'): int}}.

    The rewrite x^4 = 2e x^2 - e^2 + (4H - 2y^2)/s has integer coefficients
    because s = +-1, so every table is integral.  memo maps (i, j) to the
    tables of one spec; the caller owns it (the reducer keeps it in its
    cache key's store).
    """
    hit = memo.get((i, j))
    if hit is not None:
        return hit
    s, e = spec.s, spec.e
    if s not in (1, -1):
        raise ValueError(f"the x^4 rewrite needs s = +-1, got {s}")
    if i <= 3:
        out = {0: {(i, j): 1}}
    else:
        # x^i y^j = x^(i-4) y^j (2e x^2 - e^2 - 2s y^2 + 4s H)
        out = {}
        for (ii, jj, dk), c in (((i - 2, j, 0), 2 * e), ((i - 4, j, 0), -e * e),
                                ((i - 4, j + 2, 0), -2 * s), ((i - 4, j, 1), 4 * s)):
            if not c:
                continue
            for k, xy in _mono_split(spec, ii, jj, memo).items():
                tgt = out.setdefault(k + dk, {})
                for key, cc in xy.items():
                    tgt[key] = tgt.get(key, 0) + c * cc
        out = {k: nz for k, xy in out.items() if (nz := {key: c for key, c in xy.items() if c})}
    memo[(i, j)] = out
    return out


def normal_form(p: WeightedPoly, spec: HamiltonianSpec) -> WeightedPoly:
    """Rewrite x-powers above three through H; idempotent.

    Preserves the polynomial as a function on the plane once H is expanded.
    """
    if spec.kind != "quartic":
        raise ValueError(f"{spec.name} has no x^4 normal-form rewrite")
    out, memo = {}, {}
    for (i, j, k), c in p.terms.items():
        for dk, xy in _mono_split(spec, i, j, memo).items():
            for (ii, jj), cc in xy.items():
                key = (ii, jj, k + dk)
                out[key] = out.get(key, 0) + c * cc
    return WeightedPoly(out)


def d(g: WeightedPoly, spec: HamiltonianSpec) -> OneForm:
    """Exterior derivative of g with H expanded to the concrete Hamiltonian."""
    ge = g.subst_h(spec.h_poly)
    return OneForm(ge.dx(), ge.dy())


def wedge_with_dh(w: OneForm, spec: HamiltonianSpec) -> WeightedPoly:
    """Coefficient c in dH wedge w = c dx wedge dy."""
    hx, hy = spec.grad()
    a = w.a.subst_h(spec.h_poly)
    b = w.b.subst_h(spec.h_poly)
    return hx * b - hy * a
