"""Dense univariate polynomials and rational functions over exact rationals.

Small helper layer used for coefficient polynomials in t (or H), for the
linear ODE machinery and for indicial equations.  Coefficients are stored
low degree first.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Univariate polynomial with Fraction coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls([c])

    @classmethod
    def monomial(cls, c, n: int) -> "Poly":
        return cls([0] * n + [c])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([(self.coeffs[i] if i < len(self.coeffs) else 0)
                     + (other.coeffs[i] if i < len(other.coeffs) else 0)
                     for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.const(-_frac(other)))

    def __rsub__(self, other):
        return Poly.const(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1) if self and other else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + (float(c) if not isinstance(x, (Fraction, int)) else c)
        return acc

    def eval_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, a) -> "Poly":
        """Return p(x + a)."""
        a = _frac(a)
        out = Poly()
        xa = Poly([a, 1])
        for c in reversed(self.coeffs):
            out = out * xa + Poly.const(c)
        return out

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        while len(rem) >= len(d) and rem:
            c = rem[-1] / d[-1]
            k = len(rem) - len(d)
            q[k] = c
            for i, b in enumerate(d):
                rem[k + i] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(q), Poly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def content(self) -> Fraction:
        """gcd of the coefficients (positive), 0 for the zero polynomial."""
        if not self.coeffs:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, abs(c.numerator))
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        """Divide out the content and make the leading coefficient positive."""
        if not self.coeffs:
            return self
        c = self.content()
        if self.coeffs[-1] < 0:
            c = -c
        return Poly([a / c for a in self.coeffs])

    def rational_roots(self):
        """All rational roots with multiplicity; returns (roots, remaining_factor).

        A candidate p/q in lowest terms, p dividing the constant and q the
        leading coefficient of the cleared integer polynomial a, is a root
        iff sum_i a_i p^i q^(n-i) = 0 (integer Horner).  Candidates run over
        p, then q, ascending, + before -, so the first root found is the
        same as over every divisor pair.
        """
        p = self
        roots = []
        while not p.is_zero() and p.coeffs[0] == 0:
            roots.append(Fraction(0))
            p = Poly(p.coeffs[1:])
        while p.degree > 0:
            den = lcm(*(c.denominator for c in p.coeffs))
            ip = [c.numerator * (den // c.denominator) for c in p.coeffs]
            found = next((Fraction(sgn * pd, qd) for pd in _divisors(ip[0])
                          for qd in _divisors(ip[-1]) if gcd(pd, qd) == 1
                          for sgn in (1, -1) if _int_horner(ip, sgn * pd, qd) == 0), None)
            if found is None:
                break
            roots.append(found)
            p, r = p.divmod(Poly([-found, 1]))
            assert r.is_zero()
        return roots, p

    def to_strings(self):
        return [str(c) for c in self.coeffs]

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{i}")
        return " + ".join(parts)


def _int_horner(a, p: int, q: int) -> int:
    """sum_i a_i p^i q^(n-i) for integer coefficients a (low degree first):
    q^n times the value of the polynomial at p/q."""
    acc, q_power = 0, 1
    for c in reversed(a):
        acc = acc * p + c * q_power
        q_power *= q
    return acc


def _divisors(n: int):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    lc = a.coeffs[-1]
    return Poly([c / lc for c in a.coeffs])


class RatFn:
    """Rational function num/den over Fraction coefficients, kept reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero() and g.degree > 0:
            num = num // g
            den = den // g
        # normalize: primitive positive-leading denominator
        if den.coeffs:
            c = den.coeffs[-1]
            num = num * (1 / c)
            den = den * (1 / c)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c):
        return cls(Poly.const(c))

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFn):
            other = RatFn.const(other) if isinstance(other, (int, Fraction)) else RatFn(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if not isinstance(other, RatFn):
            other = RatFn(other) if isinstance(other, Poly) else RatFn.const(other)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-(other if isinstance(other, RatFn) else RatFn.const(other)))

    def __mul__(self, other):
        if not isinstance(other, RatFn):
            other = RatFn(other) if isinstance(other, Poly) else RatFn.const(other)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, RatFn):
            other = RatFn(other) if isinstance(other, Poly) else RatFn.const(other)
        return RatFn(self.num * other.den, self.den * other.num)

    def derivative(self):
        return RatFn(self.num.derivative() * self.den - self.num * self.den.derivative(),
                     self.den * self.den)

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __repr__(self):
        if self.den == Poly.const(1):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def ratfn_nullvector(rows):
    """Left null vector of a 3x3 RatFn matrix of rank 2.

    rows is a list of three length-3 RatFn rows; returns (p0, p1, p2) as
    polynomials with no common factor such that sum_i p_i * rows[i] = 0.
    Raises ValueError when the matrix has full rank.
    """
    # clear one common denominator, then v is orthogonal to the three
    # polynomial columns: the cross product of two independent ones
    den = Poly.const(1)
    for c in (c for row in rows for c in row):
        den = den * (c.den // poly_gcd(den, c.den))
    cols = [[rows[i][j].num * den // rows[i][j].den for i in range(3)] for j in range(3)]

    def cross(u, v):
        return [u[1] * v[2] - u[2] * v[1],
                u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0]]

    best = next((w for a, b in ((0, 1), (0, 2), (1, 2))
                 if any(w := cross(cols[a], cols[b]))), None)
    if best is None:
        raise ValueError("matrix rank < 2, null space not one-dimensional")
    # v . every column == 0 (i.e. det == 0)
    if any(sum((best[i] * col[i] for i in range(3)), Poly()) for col in cols):
        raise ValueError("matrix has full rank; no left null vector")
    g = poly_gcd(poly_gcd(best[0], best[1]), best[2])
    if g.degree > 0:
        best = [p // g for p in best]
    return normalize_coeff_vector(best)


def normalize_coeff_vector(polys):
    """Scale a polynomial vector to integer-primitive content, positive lead."""
    content = Fraction(0)
    for p in polys:
        c = p.content()
        if c != 0:
            if content == 0:
                content = c
            else:
                content = Fraction(gcd(content.numerator * c.denominator,
                                       c.numerator * content.denominator),
                                   content.denominator * c.denominator)
    if content not in (0, 1):
        polys = [p * (1 / content) for p in polys]
    lead = next((p for p in reversed(polys) if not p.is_zero()), None)
    if lead is not None and lead.coeffs[-1] < 0:
        polys = [-p for p in polys]
    return polys


def exact_nullspace(matrix, ncols):
    """Basis of the null space of M (rows of Fractions) over the rationals."""
    m = [list(map(_frac, row)) for row in matrix]
    nrows = len(m)
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(piv_cols):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis
