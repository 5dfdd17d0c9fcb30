"""Reduction engine for one-forms over the quartic Hamiltonian family.

Every polynomial one-form splits into an exact part, a multiple of dH and a
residue spanned by the moment forms sigma_k = x^k y dx with coefficients
polynomial in H.  On the annuli where the odd moment integral vanishes
identically the residue at sigma_1 folds into the multivalued primitive phi
(d phi = (2 x y dx - (x^2 - e) dy) / 4H), which opens the log-extended ring:
finite sums  phi^j H^m P(x, y)  with integer m of either sign.

The iteration that produces the first nonvanishing generating function
multiplies the dH-coefficient of the previous step back onto the original
perturbation and reduces again.  The reduction is linear, so the reducer
reduces each unit monomial once and builds every stage as a sparse sum of
cached entries.  That driver (UnitReducer), the ring element (ExtElem), the
exact reconstruction oracle (check_reconstruction) and the chain loop
(francoise_chain) serve the triangle family too, which supplies only its
moves, its dlog table, its ring data and its chain hooks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from operator import add

from .algebra import (SPECS, HamiltonianSpec, OneForm, Period, PeriodCombination,
                      ValidationError, WeightedPoly, _mono_split)
from .upoly import Poly, exact_nullspace


class ShapeError(RuntimeError):
    """An intermediate object violated the structural bounds of the theory."""


# ---------------------------------------------------------------------------
# x,y-polynomials as flat dicts {(i, j): coefficient}, plus helpers
# ---------------------------------------------------------------------------

def _common_den(values) -> int:
    """Least common denominator of exact rationals (ints or Fractions)."""
    return lcm(*(c.denominator for c in values))


def _numerators(d, den):
    """{key: rational} -> {key: integer numerator over den}; den must be a
    common denominator of the values."""
    return {key: c.numerator * (den // c.denominator) for key, c in d.items()}


def _nf_split(spec, poly_xy, memo):
    """Normal-form an x,y-dict through the integer x^4 tables in memo;
    return {h_power: xy_dict}.  Integer input gives integer output."""
    out = {}
    for (i, j), c in poly_xy.items():
        if not c:
            continue
        if i <= 3:
            tgt = out.setdefault(0, {})
            tgt[(i, j)] = tgt.get((i, j), 0) + c
            continue
        for dk, d in _mono_split(spec, i, j, memo).items():
            tgt = out.setdefault(dk, {})
            for key, cc in d.items():
                tgt[key] = tgt.get(key, 0) + cc * c
    return {k: nz for k, v in out.items() if (nz := _nonzero(v))}


# ---------------------------------------------------------------------------
# Log-extended ring elements
# ---------------------------------------------------------------------------

class ExtElem:
    """Finite sum of g^levels F^(-p) * WeightedPoly terms, g a family's log
    generators and F its Hamiltonian.

    Entries are keyed (*levels, p) with every exponent >= 0: (j, p) for the
    quartic phi^j H^-p, (a, b, p) for the triangle L^a (ln x)^b f^-p.  The H
    slot of the stored polynomial holds the positive powers of F, and when
    p > 0 it is empty, so the representation is canonical and equality is
    decidable by direct comparison.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {}
        if entries:
            for key, poly in entries.items():
                self._accumulate(key, poly)

    def _accumulate(self, key, poly: WeightedPoly):
        levels, p = key[:-1], key[-1]
        for (i, jy, k), c in poly.terms.items():
            self.add_term(*levels, k - p, i, jy, c)

    def add_term(self, *key):
        """add_term(*levels, n, i, j, c) adds c g^levels F^n x^i y^j."""
        *levels, n, i, jy, c = key
        entry = (*levels, max(0, -n))
        poly = self.entries.get(entry)
        if poly is None:
            poly = self.entries[entry] = WeightedPoly()
        mono = (i, jy, max(0, n))
        s = poly.terms.get(mono, Fraction(0)) + c
        if s:
            poly.terms[mono] = s
        else:
            poly.terms.pop(mono, None)
            if not poly.terms:
                del self.entries[entry]

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return isinstance(other, ExtElem) and self.entries == other.entries

    def __add__(self, other: "ExtElem") -> "ExtElem":
        out = ExtElem(self.entries)
        for key, poly in other.entries.items():
            out._accumulate(key, poly)
        return out

    def __neg__(self):
        return ExtElem({key: -poly for key, poly in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, WeightedPoly)):
            return ExtElem({key: poly * other for key, poly in self.entries.items()})
        out = ExtElem()
        for k1, q1 in self.entries.items():
            for k2, q2 in other.entries.items():
                out._accumulate(tuple(map(add, k1, k2)), q1 * q2)
        return out

    __rmul__ = __mul__

    def phi_degree(self) -> int:
        """Highest power of the first log generator (phi, or the triangle's L)."""
        return max((key[0] for key in self.entries), default=0)

    def max_pole(self) -> int:
        return max((key[-1] for key in self.entries), default=0)

    def subst_log_shift(self, r: int, c: Fraction) -> "ExtElem":
        """Replace the log generator g_r by g_r + c (c an exact rational)."""
        out = ExtElem()
        for key, poly in self.entries.items():
            for s in range(key[r] + 1):
                out._accumulate(key[:r] + (s,) + key[r + 1:],
                                poly * (comb(key[r], s) * c ** (key[r] - s)))
        return out

    def canonical(self) -> str:
        """The quartic print form; triangle.d4_canonical prints the triangle's."""
        if not self.entries:
            return "0"
        parts = []
        for (j, p) in sorted(self.entries, reverse=True):
            poly = self.entries[(j, p)]
            head = ""
            if j:
                head += f"phi^{j} " if j > 1 else "phi "
            if p:
                head += f"H^-{p} " if p > 1 else "H^-1 "
            parts.append(f"{head}({poly.canonical()})".strip())
        return " + ".join(parts)

    def __repr__(self):
        return f"ExtElem({self.entries!r})"


# ---------------------------------------------------------------------------
# The reducer
# ---------------------------------------------------------------------------

@dataclass
class Reduction:
    """Outcome of reducing an extended one-form.

    exact and dh_coeff are the accumulated primitive and the coefficient of
    dF; residue maps (*levels, n, i) to the rational coefficient of
    g^levels F^n x^i y dx.
    """
    exact: ExtElem
    dh_coeff: ExtElem
    residue: dict


def _ext_from_terms(terms) -> ExtElem:
    """{(*levels, n, i, j): c} -> ExtElem; (levels, n) -> (levels, max(0, -n))
    with F^max(0, n) in the H slot is injective."""
    out = ExtElem()
    for key, c in terms.items():
        n, i, j = key[-3:]
        poly = out.entries.setdefault(key[:-3] + (max(0, -n),), WeightedPoly())
        poly.terms[(i, j, max(0, n))] = c
    return out


class _Store:
    """The unit cache of one family cache key.

    entries maps a unit key to the full reduction of that single unit
    monomial, stored as (d, (exact, q, residue)): each part a dict of
    integer numerators over the entry's own denominator d.  An entry is
    never changed once stored.  split holds the family's normal-form tables
    (`algebra._mono_split`), and terms counts the coefficients of both.
    """

    __slots__ = ("entries", "split", "terms")

    def __init__(self):
        self.entries, self.split, self.terms = {}, {}, 0

    def size(self) -> int:
        return self.terms + sum(len(xy) for table in self.split.values() for xy in table.values())

    def settle(self, key, own, kids):
        """Store the entry own + sum c * entries[kid] of `key`, over the
        least common denominator of own's terms and of each c times its
        kid's denominator."""
        entries = self.entries
        dens = {kid: c.denominator * entries[kid][0] for kid, c in kids.items()}
        d = lcm(_common_den(chain(*(part.values() for part in own))), *dens.values())
        parts = tuple(_numerators(part, d) for part in own)
        for kid, c in kids.items():
            a = c.numerator * (d // dens[kid])
            for part, src in zip(parts, entries[kid][1]):
                get = part.get
                for k, v in src.items():
                    part[k] = get(k, 0) + a * v
        parts = tuple(map(_nonzero, parts))
        g = gcd(d, *(v for part in parts for v in part.values()))
        if g > 1:
            d //= g
            parts = tuple({k: v // g for k, v in part.items()} for part in parts)
        entries[key] = (d, parts)
        self.terms += sum(map(len, parts))


# {family cache key: _Store}.  When a run starts with more than
# MAX_UNIT_CACHE_TERMS terms stored over all keys, x^4 tables included, the
# whole cache is cleared (a benchmark chain settles near 21k terms).
_UNIT_CACHE = {}
MAX_UNIT_CACHE_TERMS = 200_000


def _clear_unit_cache():
    _UNIT_CACHE.clear()


def _open_store(cache_key) -> _Store:
    if sum(store.size() for store in _UNIT_CACHE.values()) > MAX_UNIT_CACHE_TERMS:
        _UNIT_CACHE.clear()
    return _UNIT_CACHE.setdefault(cache_key, _Store())


def _nonzero(d):
    return {key: v for key, v in d.items() if v}


# A unit monomial g^levels F^n x^i y^j (dx | dy | family kind) is keyed
# (*levels, n, i, j, kind).
_DX, _DY = 0, 1


class UnitReducer:
    """Memoized driver that rewrites one-forms of a log-extended ring into
    d(exact) + q dF + residue.

    The reduction is linear, so each unit monomial is reduced once per
    process: its entry (exact, q, residue) is its own move plus the cached
    entries of the unit monomials that move produces, scaled.  A run is the
    sparse sum of the entries of its input's monomials, over integer
    numerators: the input is scaled to one denominator and each cache entry
    holds integers over its own, so Fractions appear only in the moves
    and in the Reduction a run returns.  A family supplies `cache_key`
    (everything its answers depend on), `DLOG` and the moves: a unit key
    ends with an index into `MOVES`, and the named method, called with the
    rest of the key, writes its own terms into the sinks Q (exact), q and
    res and the monomials it produces into kids.  DLOG holds, for each log
    generator g, the F-shift s and the (x,y-dict, unit kind) children of
    dg = F^s sum(xy * kind).  A family whose rewriting needs it overrides
    `_split`, which puts x,y-dicts into normal form.
    """

    MAX_MOVES = 2_000_000

    def run(self, items) -> Reduction:
        """items {(*levels, n): (A, B)}, meaning g^levels F^n (A dx + B dy)."""
        exact, q, res = self.reduce_units(*self._units(items))
        return Reduction(exact=_ext_from_terms(exact), dh_coeff=_ext_from_terms(q),
                         residue=res)

    def _units(self, items):
        """Start a run: open the cache key's store and return the items as
        normal-formed units {unit key: integer numerator} and their common
        denominator."""
        den = _common_den(c for parts in items.values() for xy in parts for c in xy.values())
        self.store = _open_store(self.cache_key)
        units = {}
        for key, parts in items.items():
            for kind, xy in enumerate(parts):
                self._put(units, key[:-1], key[-1], _numerators(xy, den), kind)
        return units, den

    def reduce_units(self, units, den):
        """Units {unit key: integer numerator} over den, of a run `_units`
        opened -> (exact, q, residue) as nonzero Fraction dicts."""
        store = self.store
        entries = store.entries
        units = {key: a for key, a in units.items() if a}
        for key in units:
            if key not in entries:
                self._fill(store, key)
        d = lcm(*(entries[key][0] for key in units))
        parts = ({}, {}, {})
        for key, a in units.items():
            e_den, e_parts = entries[key]
            a *= d // e_den
            for part, src in zip(parts, e_parts):
                get = part.get
                for k, v in src.items():
                    part[k] = get(k, 0) + a * v
        den *= d
        return tuple({k: Fraction(v, den) for k, v in part.items() if v} for part in parts)

    def _fill(self, store, root):
        """Cache the entry of `root` and of every uncached descendant, post-order."""
        memo = store.entries
        stack = [root]
        path = {}  # expanded, unfinished unit -> (own parts, children)
        expansions = 0
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            node = path.get(key)
            if node is None:
                expansions += 1
                if expansions > self.MAX_MOVES:
                    raise ShapeError("reducer failed to terminate")
                node = path[key] = self._expand(key)
                pending = [k for k in node[1] if k not in memo]
                if any(k in path for k in pending):
                    raise ShapeError("reducer failed to terminate")
                if pending:
                    stack.extend(pending)
                    continue
            stack.pop()
            del path[key]
            store.settle(key, *node)

    def _expand(self, key):
        """One move on a unit monomial: ((exact, q, residue), {child unit: coeff})."""
        self.Q, self.q, self.res, self.kids = {}, {}, {}, {}
        getattr(self, self.MOVES[key[-1]])(*key[:-1])
        return (self.Q, self.q, self.res), _nonzero(self.kids)

    # -- helpers for the moves ---------------------------------------------

    def _split(self, xy):
        """x,y-dict -> {F-power shift: x,y-dict} in normal form."""
        return {0: xy}

    def _put(self, sink, levels, n, xy, kind=None):
        """Add g^levels F^n xy, split by `_split`, to an output part, or as
        children of the given kind."""
        for dk, d in self._split(xy).items():
            head = levels + (n + dk,)
            for (i, j), c in d.items():
                key = head + (i, j) if kind is None else head + (i, j, kind)
                sink[key] = sink.get(key, 0) + c

    def _emit_d(self, levels, n, u_xy):
        """Bookkeeping for the term pi dU with pi = g^levels F^n and U an
        x,y-polynomial, by the product rule pi dU = d(pi U) - U d(pi).

        With U = sum_dk F^dk u_dk from `_split`,
        pi dU = sum_dk [ d(g^levels F^(n+dk) u_dk) - n g^levels F^(n-1+dk) u_dk dF
                         - sum_r levels_r g^(levels - e_r) F^(n+dk) u_dk dg_r ].
        """
        lowered = [(levels[:r] + (levels[r] - 1,) + levels[r + 1:], levels[r], shift, kids)
                   for r, (shift, kids) in enumerate(self.DLOG) if levels[r]]
        for dk, u in self._split(u_xy).items():
            for (i, j), c in u.items():
                key = levels + (n + dk, i, j)
                self.Q[key] = self.Q.get(key, 0) + c
                if n:
                    key = levels + (n - 1 + dk, i, j)
                    self.q[key] = self.q.get(key, 0) - n * c
                for low, power, shift, kids in lowered:
                    for xy, kind in kids:
                        for (ci, cj), cc in xy.items():
                            key = low + (n + dk + shift, i + ci, j + cj, kind)
                            self.kids[key] = self.kids.get(key, 0) - power * c * cc


_DPHI = 2


class Reducer(UnitReducer):
    """Rewriting of extended one-forms over a quartic Hamiltonian.

    Every x^4 is normal-formed away, W dphi keeps H-poles in the
    dH-coefficient as shallow as the structure theory predicts, and with
    fold_sigma1 the sigma_1 residue folds into the next phi power.  The
    cache key is (spec.name, spec.s, spec.e, fold_sigma1); unit keys are
    (l, m, i, j, dx|dy|dphi) for phi^l H^m x^i y^j.
    """

    MOVES = ("_move_dx", "_move_dy", "_move_dphi")
    DLOG = ((0, (({(0, 0): 1}, _DPHI),)),)

    def __init__(self, spec: HamiltonianSpec, fold_sigma1: bool):
        if spec.kind != "quartic":
            raise ValueError("reducer requires a quartic-family Hamiltonian")
        self.spec = spec
        self.fold = fold_sigma1
        self.s, self.e = spec.s, spec.e
        self.cache_key = (spec.name, spec.s, spec.e, fold_sigma1)

    def _split(self, xy):
        return _nf_split(self.spec, xy, self.store.split)

    # -- the family's hooks in francoise_chain -----------------------------

    def items(self, w: OneForm):
        return _form_items(w, self.spec)

    def reduce(self, items) -> Reduction:
        return self.run(items)

    ring = property(lambda self: quartic_ring(self.spec))
    normalize = staticmethod(lambda elem: elem)

    def genfn(self, step: "ChainStep", n: int, annulus: str):
        if self.fold:
            levels = [l for (l, _, i) in step.residue if l and i != 1]
            if levels:
                raise ShapeError(f"phi-level {min(levels)} residue did not cancel at step {step.k}")
            if any(i == 1 for (_, _, i) in step.residue):
                raise ShapeError("sigma_1 residue on a symmetric annulus")
        else:
            m = self.check_polynomial(step.omega, step.exact, step.q)
            if m > (step.k - 1) * (n - 1) + n:
                raise ShapeError("interior chain degree bound violated")
        gf = GeneratingFn(step.k, annulus, self.spec.name, n,
                          *_residue_polys(step.residue, polynomial=not self.fold))
        if gf.is_zero():
            return None
        gf.check_shape()
        return gf

    def check_polynomial(self, items, exact: ExtElem, q: ExtElem) -> int:
        """Shape checks of a reduction without the sigma_1 fold: exact and q
        carry no phi and no H-pole, deg exact <= m + 1 and deg q <= m - 1 for
        items of normal-form weighted degree m (H of weight two).  Returns m."""
        if exact.phi_degree() or exact.max_pole() or q.phi_degree() or q.max_pole():
            raise ShapeError("polynomial input produced extended-ring output")
        m = max((i + j + 2 * n for (_, n, i, j, _), c in self._units(items)[0].items() if c),
                default=-1)
        G, g = (e.entries.get((0, 0), WeightedPoly.zero()) for e in (exact, q))
        if (not G.is_zero() and G.weighted_degree() > m + 1) \
                or (not g.is_zero() and g.weighted_degree() > m - 1):
            raise ShapeError("decomposition degree bounds violated")
        return m

    def check_q(self, q: ExtElem, k: int, n: int):
        if self.fold:
            check_q_shape(q, k, n)
            if q.max_pole() > k:
                raise ShapeError("H-pole exceeded the recursion depth cap")
        elif q.entries.get((0, 0), WeightedPoly.zero()).weighted_degree() > k * (n - 1):
            raise ShapeError("interior q degree bound violated")

    # -- individual moves on one unit monomial -----------------------------

    def _move_dy(self, l, m, i, j):
        # phi^l H^m x^i y^j dy: integrate in y
        self._emit_d((l,), m, {(i, j + 1): Fraction(1, j + 1)})
        if i:
            self._put(self.kids, (l,), m, {(i - 1, j + 1): Fraction(-i, j + 1)}, _DX)

    def _move_dx(self, l, m, i, j):
        s, e = self.s, self.e
        if j >= 2:
            lam = Fraction(1, i + 1 + 2 * j)
            self._emit_d((l,), m, {(i + 1, j): lam})
            self._put(self.q, (l,), m, {(i + 1, j - 2): -lam * j})
            self._put(self.kids, (l,), m, {(i + 2, j - 2): lam * s * e * j,
                                           (i, j - 2): -lam * s * e * e * j}, _DX)
            self._put(self.kids, (l,), m + 1, {(i, j - 2): lam * 4 * j}, _DX)
        elif j == 0:
            self._emit_d((l,), m, {(i + 1, 0): Fraction(1, i + 1)})
        elif i == 3:
            # x^3 y dx = e sigma_1 + (1/s)(y dH - d(y^3/3))
            self._put(self.kids, (l,), m, {(1, 1): Fraction(e)}, _DX)
            self._put(self.q, (l,), m, {(0, 1): Fraction(1, s)})
            self._emit_d((l,), m, {(0, 3): Fraction(-1, 3 * s)})
        elif i == 1 and self.fold:
            self._emit_d((l,), m, {(2, 1): Fraction(1, 4), (0, 1): Fraction(-e, 4)})
            self._put(self.kids, (l,), m + 1, {(0, 0): Fraction(1)}, _DPHI)
        else:
            self.res[(l, m, i)] = Fraction(1)

    def _move_dphi(self, l, m, i, j):
        s, e = self.s, self.e
        if i == 0 and j == 0:
            # pure function of H: fold into the next phi power; the dphi term
            # of the product rule is this unit itself
            self._emit_d((l + 1,), m, {(0, 0): Fraction(1, l + 1)})
            del self.kids[(l, m, 0, 0, _DPHI)]
        elif j >= 1:
            # divide by y and use y dphi = x dx - (x^2 - e)/(4H) dH
            self._put(self.kids, (l,), m, {(i + 1, j - 1): Fraction(1)}, _DX)
            self._put(self.q, (l,), m - 1, {(i + 2, j - 1): Fraction(-1, 4),
                                            (i, j - 1): Fraction(e, 4)})
        elif i >= 2:
            # x^i = e x^(i-2) + x^(i-2)(x^2 - e);
            # (x^2-e) dphi = y/(2sH) dH - dy/s
            self._put(self.kids, (l,), m, {(i - 2, 0): Fraction(e)}, _DPHI)
            self._put(self.q, (l,), m - 1, {(i - 2, 1): Fraction(1, 2 * s)})
            self._put(self.kids, (l,), m, {(i - 2, 0): Fraction(-1, s)}, _DY)
        else:
            # x dphi = H^{-1} (x^2 y / 2 dx - (x^3 - e x)/4 dy)
            self._put(self.kids, (l,), m - 1, {(2, 1): Fraction(1, 2)}, _DX)
            self._put(self.kids, (l,), m - 1, {(3, 0): Fraction(-1, 4), (1, 0): Fraction(e, 4)},
                      _DY)


# ---------------------------------------------------------------------------
# Public decompositions
# ---------------------------------------------------------------------------

@dataclass
class Decomposition:
    """w = dG + g dH + alpha(H) sigma_0 + beta(H) sigma_1 + gamma(H) sigma_2."""
    G: WeightedPoly
    g: WeightedPoly
    alpha: Poly
    beta: Poly
    gamma: Poly

    def to_json(self):
        return {
            "G": self.G.canonical(),
            "g": self.g.canonical(),
            "alpha": self.alpha.to_strings(),
            "beta": self.beta.to_strings(),
            "gamma": self.gamma.to_strings(),
        }


@dataclass
class ExtDecomposition:
    """w = d(exact) + g dH + alpha(H) sigma_0 + gamma(H) sigma_2 over the phi-ring."""
    exact: ExtElem
    g: ExtElem
    alpha: Poly
    gamma: Poly

    def to_json(self):
        return {
            "exact": self.exact.canonical(),
            "g": self.g.canonical(),
            "alpha": self.alpha.to_strings(),
            "gamma": self.gamma.to_strings(),
        }


def _form_items(w: OneForm, spec: HamiltonianSpec):
    """Reducer input {(*levels, n): (A, B)} of a polynomial one-form: w at log
    level zero of the family's ring (phi for the quartic family, L and ln x for
    the triangle), each H^n of w in the F-power slot.  It is not normal-formed:
    the reducer normal-forms its input."""
    origin = (0,) * (1 if spec.kind == "quartic" else 2) + (0,)
    return _ext_items_from_q(ExtElem({origin: WeightedPoly.const(1)}), w)


def _residue_polys(residue, polynomial: bool):
    """(pole, alpha, beta, gamma) with the phi-level-0 residue
    H^-pole [alpha(H) sigma_0 + beta(H) sigma_1 + gamma(H) sigma_2]; a pole is
    a ShapeError when the residue must be polynomial."""
    pole, polys = _laurent_to_pole_poly([_residue_laurent(residue, 0, idx) for idx in range(3)])
    if polynomial and pole:
        raise ShapeError("negative H power in a polynomial residue")
    return (pole, *polys)


def decompose(w: OneForm, spec: HamiltonianSpec) -> Decomposition:
    """Full moment decomposition of a polynomial one-form (no phi, no poles)."""
    items = _form_items(w, spec)
    reducer = Reducer(spec, fold_sigma1=False)
    red = reducer.run(items)
    check_reconstruction(reducer.ring, items, red)
    reducer.check_polynomial(items, red.exact, red.dh_coeff)
    _, alpha, beta, gamma = _residue_polys(red.residue, polynomial=True)
    return Decomposition(G=red.exact.entries.get((0, 0), WeightedPoly.zero()),
                         g=red.dh_coeff.entries.get((0, 0), WeightedPoly.zero()),
                         alpha=alpha, beta=beta, gamma=gamma)


def decompose_ext(w: OneForm, spec: HamiltonianSpec) -> ExtDecomposition:
    """Decomposition with the sigma_1 residue folded into phi (exterior annuli)."""
    items = _form_items(w, spec)
    red = Reducer(spec, fold_sigma1=True).run(items)
    if any(i == 1 for (_, _, i) in red.residue):
        raise ShapeError("sigma_1 residue survived the fold")
    _, alpha, _, gamma = _residue_polys(red.residue, polynomial=True)
    dec = ExtDecomposition(exact=red.exact, g=red.dh_coeff, alpha=alpha, gamma=gamma)
    check_reconstruction(quartic_ring(spec), items, red)
    if dec.g.phi_degree() > 1:
        raise ShapeError("first fold produced phi-degree above one")
    return dec


def m1_zero_forms(spec: HamiltonianSpec, n: int) -> list:
    """Basis of the one-forms of degree <= n whose M1 vanishes on the exterior
    annuli: the nullspace of the decompose_ext residue map (alpha, gamma)
    over the monomial forms x^i y^j dx, x^i y^j dy with i + j <= n, ordered
    by i, then j, dx first.  One form per vector of the exact nullspace
    basis, which the reduced row echelon form makes canonical.
    """
    zero = WeightedPoly.zero()
    basis = [form for i in range(n + 1) for j in range(n + 1 - i)
             for form in (OneForm(WeightedPoly.mono(1, i, j), zero),
                          OneForm(zero, WeightedPoly.mono(1, i, j)))]
    decs = [decompose_ext(f, spec) for f in basis]
    width = max(len(p.coeffs) for dec in decs for p in (dec.alpha, dec.gamma))
    rows = [[p.coeffs[r] if r < len(p.coeffs) else 0 for p in (dec.alpha, dec.gamma)
             for r in range(width)] for dec in decs]
    out = []
    for v in exact_nullspace([list(col) for col in zip(*rows)], len(basis)):
        w = OneForm.zero()
        for c, f in zip(v, basis):
            if c:
                w = w + f.scale(c)
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# Exact reconstruction of reducer output (the main internal oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogRing:
    """The concrete data of a family's log-extended ring that the oracle uses.

    f is the concrete F and df its differential as (dx part, dy part), both
    x,y-dicts; logs holds, for each log generator g, (shift, dx part, dy part)
    with dg = F^shift (dx part dx + dy part dy).  mismatch is the error
    message, formatted with the exponents of the failing level.
    """
    f: dict
    df: tuple
    logs: tuple
    mismatch: str


def _xy_dict(p: WeightedPoly) -> dict:
    """The x,y-dict of a polynomial without the H symbol."""
    return {(i, j): c for (i, j, _), c in p.terms.items()}


def quartic_ring(spec: HamiltonianSpec) -> LogRing:
    """The concrete H, with phi formal and d phi = (2 x y dx - (x^2 - e) dy) / 4H."""
    return LogRing(f=_xy_dict(spec.h_poly), df=tuple(map(_xy_dict, spec.grad())),
                   logs=((-1, {(1, 1): Fraction(1, 2)},
                          {(2, 0): Fraction(-1, 4), (0, 0): Fraction(spec.e, 4)}),),
                   mismatch="reduction does not reconstruct its input at phi-level {0}")


def _xy_mul(a, b):
    """Product of two x,y-dicts."""
    out = {}
    for (i, j), c in a.items():
        for (bi, bj), bc in b.items():
            key = (i + bi, j + bj)
            out[key] = out.get(key, 0) + c * bc
    return _nonzero(out)


def check_reconstruction(ring: LogRing, items, red: Reduction):
    """Raise ShapeError unless d(exact) + q dF + residue equals the input items.

    items are the reducer's input {(*levels, n): (A, B)}, meaning the
    one-forms g^levels F^n (A dx + B dy) with g the log generators; red is
    its Reduction.  The logs are formal, so the identity must hold at every
    level.  There the difference d(exact) + q dF + residue - items, times
    one common denominator L of both sides and of the ring's dF and dg, is
    collected as a pair of integer x,y-dicts D_n (dx and dy parts) per
    F-power n.  With F = F_int / f_den, F_int integral, f_den^(n_max - n_min)
    sum_n D_n F^(n - n_min) (n_min the lowest power on either side) is
    expanded by Horner in F_int.  Z[x, 1/x, y] is an integral domain, so the
    identity holds iff every coefficient of that expansion is zero.  The
    check is exact; no reducer's rewriting rules or caches are used.
    """
    ring_den = _common_den(c for form in chain(ring.df, *(log[1:] for log in ring.logs))
                           for c in form.values())
    red_den = _common_den(chain((c for elem in (red.exact, red.dh_coeff)
                                 for poly in elem.entries.values() for c in poly.terms.values()),
                                red.residue.values()))
    den = lcm(red_den * ring_den,
              _common_den(c for parts in items.values() for xy in parts for c in xy.values()))
    scale = den // ring_den

    def num(c):
        """A coefficient c of exact, q or the residue is num(c) / scale."""
        return c.numerator * (scale // c.denominator)

    df = tuple(_numerators(part, ring_den) for part in ring.df)
    logs = [(shift, tuple(_numerators(part, ring_den) for part in form))
            for shift, *form in ring.logs]
    f_den = _common_den(ring.f.values())
    f = _numerators(ring.f, f_den)
    diff = {}  # levels -> {F-power n: (dx part, dy part)}

    def slot(lv, n):
        return diff.setdefault(lv, {}).setdefault(n, ({}, {}))

    def add_times(lv, n, form, i, j, c):
        """c x^i y^j form at g^lv F^n, form a pair of x,y-dicts."""
        for dst, poly in zip(slot(lv, n), form):
            for (pi, pj), pc in poly.items():
                key = (i + pi, j + pj)
                dst[key] = dst.get(key, 0) + c * pc

    for key, poly in red.exact.entries.items():
        # d(g^lv F^n u) = g^lv F^n du + n g^lv F^(n-1) u dF
        #                 + sum_r lv_r g^(lv - e_r) u dg_r
        lv, n0 = key[:-1], -key[-1]
        lowered = [(lv[:r] + (lv[r] - 1,) + lv[r + 1:], lv[r], shift, form)
                   for r, (shift, form) in enumerate(logs) if lv[r]]
        for (i, j, k), c in poly.terms.items():
            n = n0 + k
            c = num(c)
            a, b = slot(lv, n)
            if i:
                a[(i - 1, j)] = a.get((i - 1, j), 0) + c * i * ring_den
            if j:
                b[(i, j - 1)] = b.get((i, j - 1), 0) + c * j * ring_den
            if n:
                add_times(lv, n - 1, df, i, j, c * n)
            for low, power, shift, form in lowered:
                add_times(low, n + shift, form, i, j, c * power)
    for key, poly in red.dh_coeff.entries.items():
        for (i, j, k), c in poly.terms.items():
            add_times(key[:-1], k - key[-1], df, i, j, num(c))
    for key, c in red.residue.items():
        # c g^lv F^n x^i y dx
        a = slot(key[:-2], key[-2])[0]
        a[(key[-1], 1)] = a.get((key[-1], 1), 0) + num(c) * ring_den
    for key, parts in items.items():
        for src, dst in zip(parts, slot(key[:-1], key[-1])):
            for xy, c in src.items():
                dst[xy] = dst.get(xy, 0) - c.numerator * (den // c.denominator)

    for lv, buckets in diff.items():
        acc = ({}, {})
        f_power = 1     # f_den^(n_max - n)
        for n in range(max(buckets), min(buckets) - 1, -1):
            acc = tuple(_xy_mul(part, f) for part in acc)
            for part, d in zip(acc, buckets.get(n, ({}, {}))):
                for key, c in d.items():
                    if c:
                        part[key] = part.get(key, 0) + c * f_power
            f_power *= f_den
        if any(c for part in acc for c in part.values()):
            raise ShapeError(ring.mismatch.format(*lv))


# ---------------------------------------------------------------------------
# Generating functions and the chain
# ---------------------------------------------------------------------------

@dataclass
class GeneratingFn(PeriodCombination):
    """First nonvanishing generating function of a quartic chain.

    Represents M_k(t) = t^{-pole_order} [alpha(t) I0 + beta(t) I1 + gamma(t) I2]
    with exact polynomial coefficients; beta vanishes identically on the
    symmetric (exterior-type) annuli.  I_i is the period of x^i y dx,
    Period.moment(i).
    """
    k: int
    annulus: str
    hamiltonian: str
    n: int
    pole_order: int
    alpha: Poly
    beta: Poly
    gamma: Poly

    basis = tuple(map(Period.moment, range(3)))

    @property
    def coeffs(self) -> tuple:
        return tuple({i - self.pole_order: c for i, c in enumerate(poly.coeffs) if c}
                     for poly in (self.alpha, self.beta, self.gamma))

    def to_json(self):
        return {
            "k": self.k,
            "annulus": self.annulus,
            "hamiltonian": self.hamiltonian,
            "n": self.n,
            "pole_order": self.pole_order,
            "alpha": self.alpha.to_strings(),
            "beta": self.beta.to_strings(),
            "gamma": self.gamma.to_strings(),
        }

    def shape_bounds(self):
        """(max pole, max deg alpha, max deg gamma) structural bounds."""
        n, k = self.n, self.k
        if not SPECS[self.hamiltonian].is_exterior(self.annulus):
            return 0, (k * (n - 1)) // 2, (k * (n - 1) - 2) // 2
        odd = n % 2 == 1
        if k == 1:
            return 0, (n - 1) // 2, (n - 3) // 2
        if k == 2:
            return 1, (n - 1 if odd else n), n - 1
        top = k * (n + 1) // 2
        if odd:
            return k - 2, top - 3, top - 4
        return k - 2, top - 2, top - 3

    def check_shape(self):
        pole, da, dg = self.shape_bounds()
        if self.pole_order > pole:
            raise ShapeError(f"pole order {self.pole_order} exceeds bound {pole}")
        # degrees measured in the normal form with the stated pole
        shift = pole - self.pole_order
        if not self.alpha.is_zero() and self.alpha.degree + shift > da:
            raise ShapeError(f"deg alpha {self.alpha.degree + shift} exceeds bound {da}")
        if not self.gamma.is_zero() and self.gamma.degree + shift > dg:
            raise ShapeError(f"deg gamma {self.gamma.degree + shift} exceeds bound {dg}")
        if not self.beta.is_zero():
            db = (self.k * (self.n - 1) - 1) // 2
            if self.beta.degree > db:
                raise ShapeError(f"deg beta {self.beta.degree} exceeds bound {db}")


def _residue_laurent(residue, level, idx):
    """{h_power: coeff} of the sigma_idx residue at the given phi level."""
    out = {}
    for (l, m, i), c in residue.items():
        if l == level and i == idx:
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _laurent_to_pole_poly(laurents):
    """[{m: c}, ...] -> (pole, [Poly, ...]) sharing one pole order."""
    pole = max([0] + [-min(lau) for lau in laurents if lau])
    return pole, [Poly([lau.get(m - pole, Fraction(0)) for m in range(max(lau) + pole + 1)])
                  if lau else Poly() for lau in laurents]


def check_q_shape(q: ExtElem, k: int, n: int):
    """Structural bounds on the dH-coefficient after k steps.

    At phi-level j the H-pole may not exceed k-1-j (no pole at level k)
    and the net weighted degree counting H with weight two and its inverse
    with weight minus two may not exceed k(n-1) - j.
    """
    if q.phi_degree() > k:
        raise ShapeError(f"q_{k} has phi-degree {q.phi_degree()} > {k}")
    for (j, p), poly in q.entries.items():
        cap = k - 1 - j if j < k else 0
        if p > max(cap, 0):
            raise ShapeError(f"q_{k} phi-level {j} has H-pole {p} > {max(cap, 0)}")
        for (i, jy, kk), c in poly.terms.items():
            net = i + jy + 2 * (kk - p)
            if net > k * (n - 1) - j:
                raise ShapeError(
                    f"q_{k} phi-level {j} weighted degree {net} > {k*(n-1)-j}")


@dataclass
class ChainStep:
    k: int
    omega: dict          # {(*levels, n): (xy A, xy B)} as fed to the reducer
    exact: ExtElem
    q: ExtElem
    residue: dict


@dataclass
class ChainResult:
    """genfn is the first nonvanishing generating function (None if every
    tested order vanishes) and k its order."""
    k: int | None
    genfn: PeriodCombination | None
    steps: list
    all_zero_up_to: int | None = None


def _ext_items_from_q(q: ExtElem, w: OneForm):
    """Bucket form {(*levels, n): (A, B)} of the raw product q * w for the
    next reduction stage.

    The product is summed over integer numerators, q and w each scaled to
    its common denominator; each output coefficient is one Fraction.  It is
    not normal-formed here: Reducer.run normal-forms its input.
    """
    q_den = _common_den(c for poly in q.entries.values() for c in poly.terms.values())
    w_den = _common_den(chain(w.a.terms.values(), w.b.terms.values()))
    w_terms = [(idx, k2, i2, j2, c2.numerator * (w_den // c2.denominator))
               for idx, src in enumerate((w.a, w.b)) for (i2, j2, k2), c2 in src.terms.items()]
    acc = {}
    for key, poly in q.entries.items():
        levels, p = key[:-1], key[-1]
        for (i, jy, kk), c in poly.terms.items():
            c = c.numerator * (q_den // c.denominator)
            for idx, k2, i2, j2, c2 in w_terms:
                slot_key = levels + (kk - p + k2,)
                slot = acc.get(slot_key)
                if slot is None:
                    slot = acc[slot_key] = ({}, {})
                xy = slot[idx]
                xy_key = (i + i2, jy + j2)
                xy[xy_key] = xy.get(xy_key, 0) + c * c2
    den = q_den * w_den
    items = {}
    for slot_key, parts in acc.items():
        parts = tuple({xy: Fraction(v, den) for xy, v in part.items() if v} for part in parts)
        if parts[0] or parts[1]:
            items[slot_key] = parts
    return items


def francoise_chain(w: OneForm, spec: HamiltonianSpec, annulus: str,
                    k_max: int = 6) -> ChainResult:
    """Francoise's recursion: reduce q_(k-1) w, with q_0 = 1, until the first
    step whose residue has a nonvanishing generating function.

    One loop serves every Hamiltonian and annulus; the family's reducer
    supplies the hooks `items(w)` (the first input), `reduce(items)`, `ring`
    (for the oracle), `normalize` (of exact and q), `genfn(step, n, annulus)`
    (None when the residue's generating function vanishes; it runs the
    family's residue checks) and `check_q(q, k, n)`.  Every step runs the
    reconstruction oracle and every check.  On the symmetric annuli the
    quartic reducer folds sigma_1 into phi.  The triangle chain, specialized
    to quadratic perturbations, stops at k = 3.
    """
    if annulus not in spec.annuli:
        raise ValidationError(f"unknown annulus {annulus!r} for {spec.name}")
    if k_max < 1:
        raise ValidationError(f"k_max must be at least 1, got {k_max}")
    if spec.kind == "quartic":
        family = Reducer(spec, fold_sigma1=spec.is_exterior(annulus))
    else:
        from . import triangle  # triangle imports this module
        family, k_max = triangle.D4Reducer(), min(k_max, 3)
    n = max(w.weighted_degree(), 1)
    items = family.items(w)
    steps = []
    for k in range(1, k_max + 1):
        red = family.reduce(items)
        check_reconstruction(family.ring, items, red)
        step = ChainStep(k=k, omega=items, exact=family.normalize(red.exact),
                         q=family.normalize(red.dh_coeff), residue=red.residue)
        steps.append(step)
        gf = family.genfn(step, n, annulus)
        if gf is not None:
            return ChainResult(k=k, genfn=gf, steps=steps)
        family.check_q(step.q, k, n)
        if k < k_max:
            items = _ext_items_from_q(step.q, w)
    return ChainResult(k=None, genfn=None, steps=steps, all_zero_up_to=k_max)
