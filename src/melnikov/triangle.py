"""The cubic triangle Hamiltonian: log-extended chain, moments, Fuchsian ODE.

Everything here is specialized to f = x(y^2 - (x-3)^2) and its bounded oval
family.  The extension ring is generated over Laurent polynomials in x and f
by two logarithms: L = ln((3-x-y)/(3-x+y)), whose differential satisfies
f dL = 2xy dx + (6x - 2x^2) dy, and X = ln x.  On the level set f = t the
periods of x^m y dx (written I_m) obey a four-term recursion, the two lowest
log moments combine into the single new period int y (x-1) ln x dx, and the
generating functions of quadratic perturbations with two vanishing orders
land in the span of I_-1, I_0 and that log period.  D4Periods (a nonzero
M1 or M2) and D4GenFn (M3) are views of algebra.PeriodCombination over that
basis.  The third-order equation of M3 steps M3's row by the Gauss-Manin
matrix of the basis, which in turn is derived from the reducer's moves
(`gauss_manin`); one indicial routine reads its exponents at a finite
singular point and at infinity.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (D4_TRIANGLE, ISTAR, OneForm, Period, PeriodCombination,
                      ValidationError, WeightedPoly)
from .reduction import (ExtElem, LogRing, Reduction, ShapeError, UnitReducer, _DX, _DY,
                        _common_den, _ext_from_terms, _form_items, _nonzero, _numerators,
                        _xy_dict, francoise_chain)
from .upoly import Poly, RatFn, normalize_coeff_vector, poly_gcd, ratfn_nullvector

# f dL = WL_X dx + WL_Y dy
_WLX = {(1, 1): Fraction(2)}
_WLY = {(1, 0): Fraction(6), (2, 0): Fraction(-2)}

# The concrete f = x y^2 - x^3 + 6 x^2 - 9 x, with L and X = ln x formal,
# f dL = 2xy dx + (6x - 2x^2) dy and dX = dx / x: the ring data of the
# reconstruction oracle.
TRIANGLE_RING = LogRing(
    f=_xy_dict(D4_TRIANGLE.h_poly), df=tuple(map(_xy_dict, D4_TRIANGLE.grad())),
    logs=((-1, _WLX, _WLY), (0, {(-1, 0): Fraction(1)}, {})),
    mismatch="triangle reduction does not reconstruct its input at level L^{0} lnx^{1}")


def _divide_by_f(poly):
    """Exact division by f in Q[x, 1/x][y]; returns quotient or None."""
    rem = dict(poly)
    quot = {}
    # f = x y^2 + c(x) with c = -x^3 + 6x^2 - 9x; leading y-term x y^2
    while rem:
        (m, j) = max(rem, key=lambda k: (k[1], k[0]))
        if j < 2:
            return None
        c = rem[(m, j)]
        qm, qj = m - 1, j - 2
        quot[(qm, qj)] = c
        for (fm, fj), fc in TRIANGLE_RING.f.items():
            key = (qm + fm, qj + fj)
            rem[key] = rem.get(key, 0) - c * fc
            if not rem[key]:
                del rem[key]
    return quot


# ---------------------------------------------------------------------------
# Elements of the extension ring: ExtElem keyed (a, b, p) for L^a X^b f^-p
# over x-Laurent, y >= 0 polynomials, with f^k (k > 0) in the H slot
# ---------------------------------------------------------------------------

def normalized(elem: ExtElem) -> ExtElem:
    """Expand positive f-powers in the concrete f; cancel f against the poles."""
    out = ExtElem()
    for (a, b, p), poly in elem.entries.items():
        xy = {(m, j): c for (m, j, _), c in poly.subst_h(D4_TRIANGLE.h_poly).terms.items()}
        while p and (quot := _divide_by_f(xy)) is not None:
            xy, p = quot, p - 1
        for (m, j), c in xy.items():
            out.add_term(a, b, -p, m, j, c)
    return out


def d4_canonical(elem: ExtElem) -> str:
    """Print form: chunks L^a lnx^b f^p (terms) with p the signed f-power,
    in descending (a, b, p), terms in descending (m, j)."""
    chunks = {}
    for (a, b, pole), poly in elem.entries.items():
        for (m, j, k), c in poly.terms.items():
            chunks.setdefault((a, b, k - pole), {})[(m, j, 0)] = c
    out = []
    for (a, b, p) in sorted(chunks, reverse=True):
        head = "".join((f"L^{a} " if a > 1 else "L " if a else "",
                        f"lnx^{b} " if b > 1 else "lnx " if b else "",
                        f"f^{p} " if p not in (0, 1) else "f " if p else ""))
        out.append(f"{head}({WeightedPoly(chunks[(a, b, p)]).canonical()})")
    return " + ".join(out) or "0"


# ---------------------------------------------------------------------------
# The reducer
# ---------------------------------------------------------------------------

def _form_to_items(w: OneForm):
    """The chain's first items: w, a quadratic form polynomial in x and y."""
    if w.weighted_degree() > 2:
        raise ValidationError("the triangle engine is specialized to quadratic one-forms")
    if any(k for poly in (w.a, w.b) for (_, _, k) in poly.terms):
        raise ValidationError("triangle perturbations must be polynomial in x, y")
    return _form_items(w, D4_TRIANGLE)


# A unit monomial L^a X^b f^p x^m y^j (dx | dy) is keyed (a, b, p, m, j, kind);
# the balanced form L^a f^p (x - 1) y dx is keyed (a, 0, p, _BALANCED).
_BALANCED = 2


class D4Reducer(UnitReducer):
    """Rewrites extension-ring one-forms into d(exact) + q df + residue.

    The residue is canonical: only x^m y dx with m in {-1, 0, 1}, possibly
    multiplied by prefactors L^a X^b f^p.  Everything else is absorbed by
    the y-peel x y^2 = f + x (x-3)^2, the moment rewrite derived from
    d(x^k y^3) together with the df route for y^2 dy, and the logarithmic
    primitives of 1/x.  The triangle is one fixed curve, so one cache key
    serves every run.
    """

    MOVES = ("_move_dx", "_move_dy", "_move_balanced")
    # dL = f^-1 (2xy dx + (6x - 2x^2) dy) and dX = x^-1 dx
    DLOG = ((-1, ((_WLX, _DX), (_WLY, _DY))), (0, (({(-1, 0): Fraction(1)}, _DX),)))
    cache_key = ("d4-triangle",)

    # -- the family's hooks in francoise_chain -----------------------------

    items = staticmethod(_form_to_items)
    ring = TRIANGLE_RING
    normalize = staticmethod(normalized)

    def reduce(self, items) -> Reduction:
        return reduce_full(items)

    def genfn(self, step, n, annulus, check):
        periods = periods_of_residue(step.residue, step.k)
        if step.k == 3:
            m3 = _genfn_from_periods(periods)
            return None if m3.is_zero() else m3
        if not periods.is_zero():
            return periods
        if step.residue:
            raise ShapeError(f"vanishing {('first', 'second')[step.k - 1]} step left an "
                             "unconvertible residue")
        return None

    def check_q(self, q: ExtElem, k: int, n: int):
        if k < 3 and (q.phi_degree() > k or q.max_pole() > k - 1):
            raise ShapeError(f"q{k} outside the expected log/pole pattern")

    def _move_dy(self, a, b, p, m, j):
        self._emit_d((a, b), p, {(m, j + 1): Fraction(1, j + 1)})
        if m:
            self._put(self.kids, (a, b), p, {(m - 1, j + 1): Fraction(-m, j + 1)}, _DX)

    def _move_dx(self, a, b, p, m, j):
        if j >= 2:
            # x^m y^j = f x^(m-1) y^(j-2) + x^m (x-3)^2 y^(j-2)
            self._put(self.kids, (a, b), p + 1, {(m - 1, j - 2): Fraction(1)}, _DX)
            self._put(self.kids, (a, b), p, {(m + 2, j - 2): Fraction(1),
                                             (m + 1, j - 2): Fraction(-6),
                                             (m, j - 2): Fraction(9)}, _DX)
        elif j == 0 and m != -1:
            self._emit_d((a, b), p, {(m + 1, 0): Fraction(1, m + 1)})
        elif j == 0:
            # the primitive is the logarithm of x; the dX term of the
            # product rule is this unit itself
            self._emit_d((a, b + 1), p, {(0, 0): Fraction(1, 1 + b)})
            del self.kids[(a, b, p, -1, 0, _DX)]
        elif -1 <= m <= 1:
            self.res[(a, b, p, m)] = Fraction(1)
        elif m >= 2:
            # moment rewrite at k = m - 1 (division by 2k + 6)
            k = m - 1
            den = Fraction(2 * k + 6)
            self._put(self.kids, (a, b), p, {(k, 1): (12 * k + 18) / den,
                                             (k - 1, 1): -18 * k / den}, _DX)
            self._put(self.kids, (a, b), p + 1, {(k - 2, 1): -(2 * k - 3) / den}, _DX)
            self._emit_d((a, b), p, {(k, 3): 2 / den})
            self._put(self.q, (a, b), p, {(k - 1, 1): -3 / den})
        else:
            # m <= -2: same rewrite solved for the f-weighted term,
            # k = m + 2, so the division is by 2k - 3 (never zero)
            k = m + 2
            den = Fraction(2 * k - 3)
            self._put(self.kids, (a, b), p - 1, {(k + 1, 1): -(2 * k + 6) / den,
                                                 (k, 1): (12 * k + 18) / den,
                                                 (k - 1, 1): -18 * k / den}, _DX)
            self._emit_d((a, b), p - 1, {(k, 3): 2 / den})
            self._put(self.q, (a, b), p - 1, {(k - 1, 1): -3 / den})

    def _move_balanced(self, a, b, p):
        """L^a f^p (x-1) y dx = L^a f^p [d(x^2 y/3 - x y) + (1/6) f dL]."""
        self._emit_d((a, 0), p, {(2, 1): Fraction(1, 3), (1, 1): Fraction(-1)})
        # (1/6) L^a f^(p+1) dL = d(L^(a+1) f^(p+1)) / (6(a+1)) - (p+1) L^(a+1) f^p df / (6(a+1))
        den = Fraction(6 * (a + 1))
        self._put(self.Q, (a + 1, 0), p + 1, {(0, 0): 1 / den})
        self._put(self.q, (a + 1, 0), p, {(0, 0): -(p + 1) / den})


def reduce_full(items) -> Reduction:
    """Reduce items {(a, b, p): (xy_dx, xy_dy)}, then absorb every balanced
    residue combination.

    A log-free slot L^a f^p is balanced when it has no x^{-1} y term and
    opposite coefficients on y dx and x y dx; the combination (x-1) y dx has
    identically vanishing periods (the two lowest moments agree) and
    converts exactly.  Slots carrying ln x are left alone: the same
    combination against ln x IS the new period and is not relatively exact.
    Conversions leave new residues, so convert until no slot is balanced.
    """
    red = D4Reducer()
    exact, q, res = red.reduce_units(*red._units(items))
    for _ in range(64):
        balanced = {(a, 0, p, _BALANCED): c for (a, b, p, m), c in res.items()
                    if b == 0 and m == 1 and (a, 0, p, -1) not in res
                    and res.get((a, 0, p, 0), 0) + c == 0}
        if not balanced:
            return Reduction(exact=_ext_from_terms(exact), dh_coeff=_ext_from_terms(q),
                             residue=res)
        for (a, _, p, _) in balanced:
            del res[(a, 0, p, 0)], res[(a, 0, p, 1)]
        den = _common_den(balanced.values())
        for part, new in zip((exact, q, res), red.reduce_units(_numerators(balanced, den), den)):
            for key, c in new.items():
                part[key] = part.get(key, 0) + c
        exact, q, res = map(_nonzero, (exact, q, res))
    raise ShapeError("balanced-residue conversion did not stabilize")


# ---------------------------------------------------------------------------
# Period values: I_m, K_m and the log period
# ---------------------------------------------------------------------------

# int y dx / x, int y dx and int y (x-1) ln x dx, the periods of the
# triangle's generating functions.
_BASIS = (Period.moment(-1), Period.moment(0), ISTAR)


@dataclass
class D4Periods(PeriodCombination):
    """Value of a cycle integral as Laurent data over the basis periods.

    Each field maps an integer f-power p to the nonzero rational coefficient
    of t^p multiplying the basis period: i_m1 ~ int y dx / x, i0 ~ int y dx,
    istar ~ int y (x-1) ln x dx.  A nonzero M1 or M2 of the chain is one of
    these, with k its order.
    """
    i_m1: dict
    i0: dict
    istar: dict
    k: int | None = None

    basis = _BASIS

    @property
    def coeffs(self) -> tuple:
        return self.i_m1, self.i0, self.istar

    def to_json(self):
        return {"k": self.k,
                "periods": {name: {str(p): str(c) for p, c in sorted(lau.items())}
                            for name, lau in (("i_m1", self.i_m1), ("i0", self.i0),
                                              ("istar", self.istar))}}


def periods_of_residue(residue, k=None) -> D4Periods:
    """Integrate a canonical residue over the oval family.

    The reflection y -> -y maps the oval onto itself reversing orientation
    and sends L to -L while fixing ln x, so a form L^a (...) y dx with odd
    a is even under the reflection and its period vanishes.  Even positive
    powers of L carry no such argument and must have been converted away
    before calling this.  Pure log-x moments must combine into the single
    basis period, which is asserted here.
    """
    i_m1, i0, k_lau, istar = {}, {}, {}, {}
    for (a, b, p, m), c in residue.items():
        if a % 2 == 1:
            continue  # odd L power: zero by the symmetry of the oval
        if a:
            raise ShapeError("even positive power of L in a period residue")
        if b > 1:
            raise ShapeError("log-x power above one in a period residue")
        # both I_0 and I_1 integrate to I_0
        dst, key = (i_m1 if m == -1 else i0, p) if b == 0 else (k_lau, (p, m))
        dst[key] = dst.get(key, 0) + c
    # the log moments must enter through (x - 1) y ln x dx
    for p in {p for (p, _) in k_lau}:
        s_m1, s0, s1 = (k_lau.get((p, m), 0) for m in (-1, 0, 1))
        if s_m1 or s0 + s1:
            raise ShapeError("log moments outside the basis combination")
        istar[p] = s1
    return D4Periods(_nonzero(i_m1), _nonzero(i0), _nonzero(istar), k=k)


# ---------------------------------------------------------------------------
# The chain for quadratic perturbations
# ---------------------------------------------------------------------------

class D4ChainError(RuntimeError):
    def __init__(self, message, periods=None):
        super().__init__(message)
        self.periods = periods


@dataclass
class D4GenFn(PeriodCombination):
    """Third-order generating function of a quadratic triangle perturbation.

    M_3(t) = c_m1 * int y dx/x + (c0 + c1/t) * int y dx
             + (cstar / t) * int y (x-1) ln x dx.
    """
    c_m1: Fraction
    c0: Fraction
    c1: Fraction
    cstar: Fraction

    k = 3
    basis = _BASIS

    @property
    def coeffs(self) -> tuple:
        return tuple(map(_nonzero, ({0: self.c_m1}, {0: self.c0, -1: self.c1},
                                    {-1: self.cstar})))

    def to_json(self):
        return {"c_m1": str(self.c_m1), "c0": str(self.c0),
                "c1": str(self.c1), "cstar": str(self.cstar)}


@dataclass
class D4ChainResult:
    q1: ExtElem
    q2: ExtElem
    Q1: ExtElem
    Q2: ExtElem
    m3: D4GenFn
    integrable: bool
    omega3_residue: dict


def _genfn_from_periods(per: D4Periods) -> D4GenFn:
    for lau, allowed in ((per.i_m1, {0}), (per.i0, {0, -1}), (per.istar, {-1})):
        if set(lau) - allowed:
            raise ShapeError(f"t-powers {sorted(set(lau) - allowed)} outside the expected shape")
    zero = Fraction(0)
    return D4GenFn(c_m1=per.i_m1.get(0, zero), c0=per.i0.get(0, zero),
                   c1=per.i0.get(-1, zero), cstar=per.istar.get(-1, zero))


def d4_chain(w: OneForm, check: bool = True) -> D4ChainResult:
    """The three-step chain of a quadratic perturbation of the triangle.

    Requires the first two generating functions to vanish identically and
    raises D4ChainError with the nonzero periods otherwise.  For an exact
    perturbation every step vanishes and the result is flagged integrable.
    """
    chain = francoise_chain(w, D4_TRIANGLE, "main", k_max=3, check=check)
    if chain.k in (1, 2):
        raise D4ChainError(f"M{chain.k} nonzero", periods=chain.genfn)
    s1, s2, s3 = chain.steps
    m3 = chain.genfn if chain.genfn is not None else D4GenFn(*[Fraction(0)] * 4)
    return D4ChainResult(q1=s1.q, q2=s2.q, Q1=s1.exact, Q2=s2.exact, m3=m3,
                         integrable=chain.genfn is None, omega3_residue=s3.residue)


# ---------------------------------------------------------------------------
# The Gauss-Manin system of the basis periods, derived from the reducer
# ---------------------------------------------------------------------------

# On f = t, d/dt y^2 = 1/x, so the period of the lift (2/3) g y^3 dx has the
# t-derivative int (g/x) y dx.  With g = 1, x and x (x - 1) ln x these
# derivatives are the basis periods B = (I_-1, I_0, I*).
_LIFTS = ({(0, 0, 0): ({(0, 3): Fraction(2, 3)}, {})},
          {(0, 0, 0): ({(1, 3): Fraction(2, 3)}, {})},
          {(0, 1, 0): ({(2, 3): Fraction(2, 3), (1, 3): Fraction(-2, 3)}, {})})


def _mat_inv3(A):
    def det2(a, b, c, d):
        return a * d - b * c
    cof = [[None] * 3 for _ in range(3)]
    idx = [0, 1, 2]
    for i in range(3):
        for j in range(3):
            rows = [r for r in idx if r != i]
            cols = [c for c in idx if c != j]
            m = det2(A[rows[0]][cols[0]], A[rows[0]][cols[1]],
                     A[rows[1]][cols[0]], A[rows[1]][cols[1]])
            cof[i][j] = m if (i + j) % 2 == 0 else -m
    det = A[0][0] * cof[0][0] + A[0][1] * cof[0][1] + A[0][2] * cof[0][2]
    return [[cof[j][i] / det for j in range(3)] for i in range(3)]


def _row_step(v, G):
    """v -> v' + v G: the derivative of v . B, with B' = G B."""
    return [sum((v[i] * G[i][j] for i in range(3)), v[j].derivative()) for j in range(3)]


@functools.cache
def gauss_manin():
    """The matrix G with B' = G B for B = (I_-1, I_0, I*), over Q(t).

    Each lift reduces to R_i . B (its residue's periods), so B = R' B + R B'
    and G = R^-1 (1 - R').
    """
    R = [periods_of_residue(reduce_full(lift).residue).row() for lift in _LIFTS]
    rhs = [[RatFn.const(int(i == j)) - R[i][j].derivative() for j in range(3)]
           for i in range(3)]
    Rinv = _mat_inv3(R)
    return tuple(tuple(sum((Rinv[i][k] * rhs[k][j] for k in range(3)), RatFn.const(0))
                       for j in range(3)) for i in range(3))


# ---------------------------------------------------------------------------
# Fuchsian equation machinery
# ---------------------------------------------------------------------------

@dataclass
class FuchsOde:
    """Linear ODE sum a_i(t) y^(i) = 0 with exact polynomial coefficients.

    singular_points lists only the rational roots of the leading coefficient
    and "inf"; the roots of its irreducible factors of higher degree are
    singular points too but are not listed (the paper form's
    351 t^2 + 6336 t + 18432, roots near -3.645 and -14.406).
    """
    order: int
    coeffs: list       # [a_0, ..., a_n] as Poly
    singular_points: list

    def normalized(self) -> "FuchsOde":
        polys = list(self.coeffs)
        g = None
        for p in polys:
            if p.is_zero():
                continue
            g = p if g is None else poly_gcd(g, p)
        if g is not None and g.degree > 0:
            polys = [p // g if not p.is_zero() else p for p in polys]
        polys = normalize_coeff_vector(polys)
        return FuchsOde(order=self.order, coeffs=polys,
                        singular_points=_singular_points(polys))

    def to_json(self):
        return {
            "order": self.order,
            "coeffs": [p.to_strings() for p in self.coeffs],
            "singular_points": [str(s) for s in self.singular_points],
        }

    def render(self, fn="M3") -> str:
        """Human-readable equation text, highest derivative first."""
        primes = {0: "", 1: "'", 2: "''", 3: "'''", 4: "''''"}
        parts = []
        for i in range(self.order, -1, -1):
            p = self.coeffs[i]
            if p.is_zero():
                continue
            parts.append(f"({p!r}) {fn}{primes.get(i, '^(%d)' % i)}")
        return " + ".join(parts) + " = 0"

    def proportional_to(self, other: "FuchsOde") -> bool:
        if self.order != other.order:
            return False
        for i in range(self.order + 1):
            for j in range(self.order + 1):
                if not (self.coeffs[i] * other.coeffs[j]
                        == self.coeffs[j] * other.coeffs[i]):
                    return False
        return True


def _singular_points(coeffs):
    return sorted(set(coeffs[-1].rational_roots()[0])) + ["inf"]


def d4_fuchs_ode(gf: D4GenFn) -> FuchsOde:
    """Third-order equation for M3 from the Gauss-Manin matrix.

    M3 = r_0 . B with r_0 = gf.row(), and its k-th derivative is r_k . B
    with r_(k+1) = r_k' + r_k G.  The left null vector (a_1, a_2, a_3) of
    (r_1, r_2, r_3) gives a_3 M3''' + a_2 M3'' + a_1 M3' = 0.
    """
    if gf.is_zero():
        raise ValueError("degenerate generating function")
    G = gauss_manin()
    r = gf.row()
    rows = []
    for _ in range(3):
        r = _row_step(r, G)
        rows.append(r)
    a1, a2, a3 = ratfn_nullvector(rows)
    return FuchsOde(order=3, coeffs=[Poly(), a1, a2, a3], singular_points=[]).normalized()


def d4_local_exponents(ode: FuchsOde, t0):
    """Exponents at a singular point t0 (or "inf"), and the factor of the
    indicial polynomial without rational roots (None when it splits).

    y = s^rho, s = t - t0, meets the lowest term c s^o of a_i in
    c rho (rho - 1) ... (rho - i + 1) s^(rho - i + o); y = t^-rho meets the
    top term c t^o in c (-rho) ... (-rho - i + 1) t^(-rho - i + o).  The
    terms of least (at t0) or greatest (at infinity) o - i sum to the
    indicial polynomial.
    """
    if t0 == "inf":
        sign, polys = -1, ode.coeffs
    else:
        t0 = Fraction(t0)
        if ode.coeffs[-1].eval_exact(t0) != 0:
            raise ValueError(f"t = {t0} is an ordinary point")
        sign, polys = 1, [p.shift(t0) for p in ode.coeffs]
    terms = []
    for i, p in enumerate(polys):
        if p:
            o = p.degree if sign < 0 else next(o for o, c in enumerate(p.coeffs) if c)
            terms.append((i, o, p.coeffs[o]))
    level = max(sign * (i - o) for i, o, _ in terms)
    ind = Poly()
    for i, o, c in terms:
        if sign * (i - o) == level:
            term = Poly.const(c)
            for r in range(i):
                term = term * Poly([-r, sign])
            ind = ind + term
    roots, rem = ind.rational_roots()
    return sorted(roots), (rem if not rem.is_zero() and rem.degree > 0 else None)
