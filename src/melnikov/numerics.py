"""Floating-point oracles: oval quadrature, return-map shooting, zero counts.

Ovals are parameterized through the angle substitution x = c + r sin(theta),
which removes the square-root endpoint singularity of the y-branches: each
family's y^2 factors explicitly, so y = r cos(theta) S(x) with a smooth
positive S.  Every period integrated here is one weighted moment
int p(x) (ln x)^b y^s dx (an algebra.Period) under one integrand in theta;
general one-forms take the two-arc path.  Orientation follows the
unperturbed flow for the quartic family (clockwise in the plane); the
triangle ovals are taken counterclockwise, matching the convention under
which the log period tends to -6 at the inner critical value.  Shooting
reads the flow's direction from the oval's orientation, so only
trace_oval looks at the Hamiltonian's family.

Every entry point takes a vector of levels in one numpy pass: trace_oval
traces all the ovals at once, period_values applies Gauss-Legendre rules in
theta of doubling order to all the levels it has not cached, and
shooting_oracle integrates all its (level, eps) pairs as one stacked ODE
system, and eval_genfn combines the period values of any
algebra.PeriodCombination.  Adaptive quad, failing only above both the
requested tolerance and 1e-6 of the value, is the fallback for periods
whose rules do not settle, and the independent oracle of the tests.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .algebra import (D4_TRIANGLE, ISTAR, HamiltonianSpec, OneForm, Period,
                      PeriodCombination, ValidationError, eval_float_terms)


class NumericsError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Oval geometry
# ---------------------------------------------------------------------------

@dataclass
class Oval:
    """One closed level curve with an explicit two-arc parameterization.

    For an array of m levels, t, x_lo, x_hi and the closures' parameters are
    columns of shape (m, 1), so x_of on a row of angles gives one row per
    level."""
    spec: HamiltonianSpec
    t: float
    annulus: str
    x_lo: float
    x_hi: float
    smooth_factor: object      # S(x) with y = sqrt((x_hi-x)(x-x_lo)) S(x)
    g_prime: object            # d/dx of y^2 along the level set
    orientation: int           # +1: top arc traversed with x increasing first

    @property
    def center(self):
        return 0.5 * (self.x_lo + self.x_hi)

    @property
    def radius(self):
        return 0.5 * (self.x_hi - self.x_lo)

    def x_of(self, theta):
        return self.center + self.radius * np.sin(theta)

    def y_top(self, theta):
        x = self.x_of(theta)
        return self.radius * np.cos(theta) * self.smooth_factor(x)

    def dy_top(self, theta):
        x = self.x_of(theta)
        return self.g_prime(x) / (2.0 * self.smooth_factor(x))

    def points(self, n=400):
        """Closed polyline from the two branches, flow orientation."""
        thetas = np.linspace(-np.pi / 2, np.pi / 2, n // 2)
        xs = self.x_of(thetas)
        ys = self.y_top(thetas)
        top = np.stack([xs, ys], axis=1)
        bottom = np.stack([xs[::-1], -ys[::-1]], axis=1)
        pts = np.vstack([top, bottom])
        if self.orientation < 0:
            pts = pts[::-1]
        return pts


def _a3_branch_data(spec: HamiltonianSpec, t, annulus: str):
    """x-range, S and y^2' of a quartic oval; t is a float or a column.

    With u = x^2, y^2 = (s/2) (u_hi - u)(u - u_lo) for u_lo, u_hi =
    e -+ 2 sqrt|t|.  An interior oval spans [sqrt u_lo, sqrt u_hi] on its
    side of the saddle; a symmetric oval spans +-sqrt u_hi when s > 0 and
    +-sqrt u_lo when s < 0, and S^2 is the factor left in u.
    """
    s, e = spec.s, spec.e
    root = np.sqrt(np.abs(t))
    u_lo, u_hi = e - 2 * root, e + 2 * root
    side = spec.sides.get(annulus)
    if side:
        lo, hi = side * np.sqrt(u_lo), side * np.sqrt(u_hi)
        if side < 0:
            lo, hi = hi, lo
        S = lambda x: np.sqrt(s * (x + hi) * (x + lo) / 2.0)
    else:
        far, near = (u_lo, u_hi) if s > 0 else (u_hi, u_lo)
        hi = np.sqrt(near)
        lo = -hi
        S = lambda x: np.sqrt(s * (x * x - far) / 2.0)
    gp = lambda x: -2.0 * s * x * (x * x - e)
    return lo, hi, S, gp


def _d4_roots(t):
    """Roots r1 < r2 < r3 of x (x-3)^2 + t = 0 for -4 < t < 0, elementwise.

    With x = 2 + z the cubic is z^3 - 3z + 2 + t, whose roots are
    2 cos((phi - 2 pi k) / 3) with cos(phi) = -(2 + t) / 2; Newton's method
    then polishes each root until its own step is below 1e-15 relative.
    """
    phi = np.arccos(np.clip(-(2.0 + t) / 2.0, -1.0, 1.0))
    roots = []
    for k in (2, 1, 0):
        x = 2.0 + 2.0 * np.cos((phi - 2.0 * np.pi * k) / 3.0)
        moving = np.ones(np.shape(x), dtype=bool)
        for _ in range(40):
            step = np.where(moving, (((x - 6) * x + 9) * x + t) / ((3 * x - 12) * x + 9), 0.0)
            x = x - step
            moving &= np.abs(step) >= 1e-15 * np.maximum(1.0, np.abs(x))
            if not moving.any():
                break
        roots.append(x if np.ndim(t) else float(x))
    return roots


def trace_oval(spec: HamiltonianSpec, t, annulus: str, margin: float = 1e-6) -> Oval:
    """Build the oval object for a level strictly inside the annulus, or for
    every level of a 1-d array t at once (see Oval)."""
    if annulus not in spec.annuli:
        raise ValidationError(f"unknown annulus {annulus!r} for {spec.name}")
    ts = np.asarray(t, dtype=float)
    lo_t, hi_t = spec.sigma_range(annulus)
    if math.isfinite(hi_t):
        width = hi_t - lo_t
        inside = (lo_t + margin * width < ts) & (ts < hi_t - margin * width)
    else:
        inside = lo_t + margin * np.maximum(1.0, np.abs(ts) + 1.0) < ts
    if not np.all(inside):
        raise NumericsError(f"level {ts[~inside].flat[0]} outside the annulus interval")
    col = ts[:, None] if ts.ndim else float(ts)
    if spec.kind == "quartic":
        lo, hi, S, gp = _a3_branch_data(spec, col, annulus)
        orientation = +1
    else:
        lo, hi, r3 = _d4_roots(col)
        S = lambda x: np.sqrt((r3 - x) / x)
        gp = lambda x: -col / (x * x) + 2.0 * (x - 3.0)
        orientation = -1
    if not ts.ndim:
        lo, hi = float(lo), float(hi)
    return Oval(spec=spec, t=col, annulus=annulus, x_lo=lo, x_hi=hi,
                smooth_factor=S, g_prime=gp, orientation=orientation)


# ---------------------------------------------------------------------------
# Periods: Gauss-Legendre on vectors of levels, adaptive quad as fallback
# ---------------------------------------------------------------------------

def _check_period(oval: Oval, period: Period):
    p, log, ypow = period
    if ypow % 2 == 0:
        raise ValueError(f"even power of y in {period!r}: the two arcs cancel")
    if np.any(oval.x_lo <= 0) and (log or any(k < 0 for k, _ in p)):
        raise NumericsError("integrand singular on or inside the oval")


def _geometry(oval: Oval, theta):
    """x, rc = r cos(theta) and S(x) at the angles theta."""
    x = oval.x_of(theta)
    return x, oval.radius * np.cos(theta), oval.smooth_factor(x)


def _period_integrand(period: Period, x, rc, sx):
    """The period's integrand in theta on (-pi/2, pi/2) for the clockwise
    loop, from _geometry: y = rc S(x) and dx = rc dtheta, and an odd power
    of y makes the two arcs contribute equally."""
    p, log, ypow = period
    v = 0.0
    for k, a in p:
        v = v + float(a) * x ** k
    if log:
        v = v * np.log(x) ** log
    v = 2.0 * v * rc ** (ypow + 1)
    sx = sx ** abs(ypow)
    return v * sx if ypow > 0 else v / sx


def _integrand_functions(oval: Oval, integrand):
    """Return F(theta) for the clockwise loop integral of the integrand: a
    Period, a OneForm, or a pair (A, B) of callables for A dx + B dy."""
    r = oval.radius

    if isinstance(integrand, Period):
        _check_period(oval, integrand)
        return lambda theta: _period_integrand(integrand, *_geometry(oval, theta))

    if isinstance(integrand, OneForm):
        a = integrand.a.float_terms()
        b = integrand.b.float_terms()
        tval = oval.t

        def A(x, y):
            return eval_float_terms(a, x, y, tval)

        def B(x, y):
            return eval_float_terms(b, x, y, tval)
    else:
        A, B = integrand  # pair of callables

    def F(theta):
        x = float(oval.x_of(theta))      # Python floats: faster in A and B
        y = float(oval.y_top(theta))
        dx = r * np.cos(theta)
        dy = oval.dy_top(theta)
        return (A(x, y) - A(x, -y)) * dx + (B(x, y) + B(x, -y)) * dy
    return F


def integrate_form(oval: Oval, integrand, epsabs=1e-13, epsrel=1e-11) -> float:
    """Adaptive quadrature of a Period or a one-form over the oval (of one
    level), oriented as traced.  Raises NumericsError when quad's error
    estimate is above both the requested tolerance and 1e-6 max(1, |value|)."""
    import warnings
    from scipy.integrate import IntegrationWarning
    F = _integrand_functions(oval, integrand)
    with warnings.catch_warnings():
        # round-off warnings near the requested tolerance are adjudicated
        # through the returned error estimate instead
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(F, -np.pi / 2, np.pi / 2, epsabs=epsabs, epsrel=epsrel,
                        limit=400)
    if err > max(epsabs, epsrel * abs(val), 1e-6 * max(1.0, abs(val))):
        raise NumericsError(f"quadrature failed to converge (error {err:.2e})")
    return oval.orientation * val


# Gauss-Legendre orders tried in turn; a period is accepted at the first
# order that agrees with the one before it.
GL_ORDERS = (8, 16, 32, 64, 128, 256)


def _legendre(n, u):
    """P_n(u) and P_n'(u) by the three-term recurrence."""
    p0, p1 = np.ones_like(u), u
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * u * p1 - (m - 1) * p0) / m
    return p1, n * (u * p1 - p0) / (u * u - 1.0)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Angles in (-pi/2, pi/2) and weights of the n-point rule, n even.

    The positive nodes are the roots of P_n, by Newton's method from
    cos(pi (k + 3/4) / (n + 1/2)).  numpy's leggauss solves an n x n
    eigenproblem instead, whose work arrays raise the peak memory by about
    1.6 MB up to n = 256, and its weights are 1e-11 off there.
    """
    u = np.cos(np.pi * (np.arange(n // 2) + 0.75) / (n + 0.5))
    for _ in range(20):
        p, dp = _legendre(n, u)
        step = p / dp
        u = u - step
        if np.max(np.abs(step)) < 1e-15:
            break
    _, dp = _legendre(n, u)
    w = 2.0 / ((1.0 - u * u) * dp * dp)
    return 0.5 * np.pi * np.concatenate([-u, u[::-1]]), 0.5 * np.pi * np.concatenate([w, w[::-1]])


def _fresh_period_values(spec, annulus, levels, basis, epsabs, epsrel):
    """Values (len(levels), len(basis)) of the periods on the ovals at the
    levels, uncached.

    Each order's rule runs on the levels with a period still open.  A
    period's value at a level is the first rule value within
    max(epsabs, epsrel |v|) of the previous order's, so it depends on that
    level and period only.  A value still open after the last order comes
    from integrate_form.
    """
    values = np.zeros((len(levels), len(basis)))
    done = np.zeros(values.shape, dtype=bool)
    todo, prev = np.arange(len(levels)), None
    oval = trace_oval(spec, levels, annulus)
    for period in basis:
        _check_period(oval, period)
    for n in GL_ORDERS:
        theta, weights = _gauss_legendre(n)
        geometry = _geometry(oval, theta)
        # a row sum, so that each level's value does not depend on the others
        cur = np.stack([(_period_integrand(period, *geometry) * weights).sum(axis=1)
                        for period in basis], axis=1) * oval.orientation
        if prev is not None:
            new = ~done[todo] & (np.abs(cur - prev) <= np.maximum(epsabs, epsrel * np.abs(cur)))
            values[todo] = np.where(new, cur, values[todo])
            done[todo] |= new
            open_ = ~done[todo].all(axis=1)
            if not open_.any():
                break
            if not open_.all():
                todo, cur = todo[open_], cur[open_]
                oval = trace_oval(spec, levels[todo], annulus)
        prev = cur
    for i, j in zip(*np.nonzero(~done)):
        oval = trace_oval(spec, float(levels[i]), annulus)
        values[i, j] = integrate_form(oval, basis[j], epsabs, epsrel)
    return values


# {(Hamiltonian, annulus, Period, epsabs, epsrel): {level: value}}, keyed on
# everything that changes the value.  Each map keeps the MAX_CACHED_LEVELS
# levels inserted last.
_MOMENT_CACHE = {}
MAX_CACHED_LEVELS = 4096


def period_values(spec, annulus, t, basis, epsabs=1e-13, epsrel=1e-11):
    """Values of the periods in `basis` on the oval at level t, as a list; for
    a 1-d array t, an array with one row per level.  Cached per level; the
    levels missing from any period's cache are computed in one pass."""
    levels = np.atleast_1d(np.asarray(t, dtype=float))
    keys = levels.tolist()
    caches = [_MOMENT_CACHE.setdefault((spec.name, spec.s, spec.e, annulus, period,
                                        epsabs, epsrel), {}) for period in basis]
    values = np.array([[cache.get(key, math.nan) for key in keys] for cache in caches])
    values = values.reshape(len(basis), len(keys)).T
    missing = np.nonzero(np.isnan(values).any(axis=1))[0]
    if len(missing):
        values[missing] = _fresh_period_values(spec, annulus, levels[missing], basis,
                                               epsabs, epsrel)
        for cache, column in zip(caches, values[missing].T.tolist()):
            for i, v in zip(missing, column):
                if keys[i] not in cache:
                    if len(cache) >= MAX_CACHED_LEVELS:
                        del cache[next(iter(cache))]
                    cache[keys[i]] = v
    return values if np.ndim(t) else values[0].tolist()


def moment(spec, annulus, t, k, epsabs=1e-13, epsrel=1e-11) -> float:
    return period_values(spec, annulus, t, (Period.moment(k),), epsabs, epsrel)[0]


# ---------------------------------------------------------------------------
# Symbolic generating functions evaluated through the periods
# ---------------------------------------------------------------------------

def eval_genfn(gf: PeriodCombination, spec, annulus, t, epsabs=1e-13, epsrel=1e-11):
    """Float value of gf at level t, or an array of its values at each level
    of a 1-d array t."""
    values = period_values(spec, annulus, t, gf.basis, epsabs, epsrel)
    if np.ndim(t):
        return np.broadcast_to(gf.combine(values.T, t), np.shape(t))
    return gf.combine(values, t)


# ---------------------------------------------------------------------------
# phi closures for the quartic family
# ---------------------------------------------------------------------------

def phi_function(spec: HamiltonianSpec):
    """The single-valued phi on the symmetric ovals of a quartic with
    s = +-1: H dphi = (x y / 2) dx - (x^2 - e)/4 dy.  For s > 0 an
    arctangent shifted by -(pi/2) sign(y), which keeps it continuous across
    y = 0, and for s < 0 a logarithm."""
    if spec.kind != "quartic":
        raise ValueError(f"no phi closure for {spec.name}")
    e, r2 = spec.e, math.sqrt(2)
    if spec.s > 0:
        def phi(x, y):
            if y == 0:
                return 0.0
            return (math.atan((x * x - e) / (y * r2)) - (math.pi / 2) * math.copysign(1.0, y)) / r2
    else:
        def phi(x, y):
            u = e - x * x
            return math.log((u - r2 * y) / (u + r2 * y)) / (2 * r2)
    return phi


@dataclass
class PhiReport:
    max_jump: float
    endpoint_values: tuple
    identity_residual: float


def phi_check(spec: HamiltonianSpec, t: float, annulus: str = None) -> PhiReport:
    """Single-valuedness and differential identity of phi along an oval:
    max_jump is the largest change of phi between neighbours of a closed
    4000-point polyline, wrap-around included, which a branch cut shows."""
    annulus = annulus or next((a for a in spec.annuli if spec.is_exterior(a)), spec.annuli[0])
    if not spec.is_exterior(annulus):
        raise NumericsError("phi is attached to the symmetric annuli")
    ov = trace_oval(spec, t, annulus)
    phi = phi_function(spec)
    vals = [phi(x, y) for x, y in ov.points(n=4000)]
    jump = max(abs(v - u) for u, v in zip(vals, vals[1:] + vals[:1]))
    endpoints = (phi(ov.x_hi, 0.0), phi(ov.x_lo, 0.0))
    # H dphi = (x y / 2) dx - (x^2 - e)/4 dy, checked through finite
    # differences of the closed form at sample points off the axis
    e = spec.e
    h = spec.h_poly.float_terms()
    resid = 0.0
    for theta in np.linspace(-1.2, 1.2, 10):
        x = ov.x_of(theta)
        y = ov.y_top(theta)
        eps = 1e-6
        dphix = (phi(x + eps, y) - phi(x - eps, y)) / (2 * eps)
        dphiy = (phi(x, y + eps) - phi(x, y - eps)) / (2 * eps)
        hv = eval_float_terms(h, x, y)
        resid = max(resid, abs(hv * dphix - x * y / 2),
                    abs(hv * dphiy + (x * x - e) / 4))
    return PhiReport(max_jump=jump, endpoint_values=endpoints, identity_residual=resid)


# ---------------------------------------------------------------------------
# Return-map shooting
# ---------------------------------------------------------------------------

@dataclass
class MelnikovSample:
    t_grid: list
    shooting: list           # estimated leading coefficient per t
    symbolic: list           # quadrature value of the symbolic answer (or None)
    fitted_k: int
    fit_residual: float
    displacements: dict      # (t, eps) -> displacement


def _period_estimate(oval: Oval):
    """Time around the oval (an array over the levels of an oval of many):
    the period of dx / x_dot = dx / H_y, with H_y = m x^i y for every
    Hamiltonian here."""
    ((i, _, _), m), = oval.spec.h_poly.dy().terms.items()
    levels = oval.t[:, 0] if np.ndim(oval.t) else oval.t
    values = period_values(oval.spec, oval.annulus, levels, (Period(((-i, 1 / float(m)),), 0, -1),))
    return np.abs(values)[..., 0]


def _start_and_direction(annulus, oval):
    """Start point on the x-axis and the sign of y' at the return there,
    for the flow traversing the oval in its orientation: x_lo on a left
    interior annulus (side -1) and x_hi otherwise."""
    if oval.spec.sides.get(annulus, 1) < 0:
        return (oval.x_lo, 0.0), oval.orientation
    return (oval.x_hi, 0.0), -oval.orientation


def _stacked_field(spec: HamiltonianSpec, w: OneForm, scale, eps):
    """Right-hand side of the perturbed flow x' = H_y - eps B,
    y' = -H_x + eps A (w = A dx + B dy) for N pairs stacked as
    u = (x_0, y_0, x_1, y_1, ...), pair n with its own eps[n] and with time
    multiplied by scale[n]."""
    h = spec.h_poly
    columns = (h.dy(), -w.b.subst_h(h), -h.dx(), w.a.subst_h(h))
    monos = sorted({(i, j) for p in columns for (i, j, _) in p.terms})
    pi = np.array([i for i, _ in monos])
    pj = np.array([j for _, j in monos])
    coeffs = np.array([[float(p.coefficient(i, j, 0)) for p in columns]
                       for i, j in monos]).reshape(len(monos), len(columns))

    def rhs(_s, u):
        v = (u[0::2, None] ** pi * u[1::2, None] ** pj) @ coeffs
        du = np.empty_like(u)
        du[0::2] = scale * (v[:, 0] + eps * v[:, 1])
        du[1::2] = scale * (v[:, 2] + eps * v[:, 3])
        return du
    return rhs


_EPS = np.finfo(float).eps


def _first_returns(rhs, u0, direction):
    """State (x, y) of each stacked pair at its first crossing of y = 0 with
    y' of the sign `direction` after the start.

    One DOP853 solve runs over 1.1 time units (a return takes about one),
    a second one on to 4 only for a pair that has not returned.  Each
    crossing is bracketed between two step boundaries and located by brentq
    on that step's dense-output interpolant.
    """
    hits = np.full((len(u0) // 2, 2), math.nan)
    s0 = 0.0
    for s1 in (1.1, 4.0):
        sol = solve_ivp(rhs, (s0, s1), u0, method="DOP853", rtol=1e-12, atol=1e-12,
                        dense_output=True)
        if not sol.success:
            raise NumericsError("integration failed before the section")
        ys = direction * sol.y[1::2]
        for n in np.nonzero(np.isnan(hits[:, 0]))[0]:
            steps = np.nonzero((ys[n, :-1] < 0) & (ys[n, 1:] >= 0))[0]
            if len(steps):
                i = steps[0]
                step = sol.sol.interpolants[i]
                s = brentq(lambda s: step(s)[2 * n + 1], sol.t[i], sol.t[i + 1],
                           xtol=4 * _EPS, rtol=4 * _EPS)
                hits[n] = step(s)[2 * n:2 * n + 2]
        if not np.isnan(hits[:, 0]).any():
            return hits
        s0, u0 = s1, sol.y[:, -1]
    raise NumericsError("no return to the section (near a separatrix?)")


def shooting_oracle(spec: HamiltonianSpec, w: OneForm, annulus: str,
                    t_grid, eps_grid=None,
                    symbolic: PeriodCombination | None = None) -> MelnikovSample:
    """Estimate the order and size of the displacement map by integration.

    Integrates the perturbed flow from the horizontal section for every
    (level, eps) pair at once, each pair in units of its level's period,
    locates each return as a direction-filtered section crossing, fits the
    leading epsilon power by least squares on the geometric epsilon grid
    and extrapolates the coefficient.
    """
    if eps_grid is None:
        eps_grid = [1e-3, 2e-3, 4e-3, 8e-3]
    eps_grid = sorted(eps_grid)
    if len(eps_grid) < 4 or not all(0 < e <= 1e-2 for e in eps_grid):
        raise ValidationError("need at least four epsilon values in (0, 1e-2]")
    h = spec.h_poly
    levels = np.asarray(t_grid, dtype=float)
    oval = trace_oval(spec, levels, annulus)
    (x0, _), direction = _start_and_direction(annulus, oval)
    n_eps = len(eps_grid)
    rhs = _stacked_field(spec, w, np.repeat(oval.orientation * _period_estimate(oval), n_eps),
                         np.tile(eps_grid, len(levels)))
    u0 = np.zeros(2 * n_eps * len(levels))
    u0[0::2] = np.repeat(x0[:, 0], n_eps)
    ends = iter(_first_returns(rhs, u0, direction).tolist())

    disp = {}
    shooting_vals = []
    ks = []
    for t in t_grid:
        for eps in eps_grid:
            xe, ye = next(ends)
            disp[(t, eps)] = h.eval_float(xe, ye) - t
        ds = [disp[(t, eps)] for eps in eps_grid]
        if all(abs(dv) < 1e-11 for dv in ds):
            ks.append(None)
            shooting_vals.append(0.0)
            continue
        logs = np.log(np.abs(ds))
        le = np.log(eps_grid)
        slope, intercept = np.polyfit(le, logs, 1)
        k_est = int(round(slope))
        ks.append((k_est, float(np.max(np.abs(np.polyval([slope, intercept], le) - logs)))))
        # extrapolate from the two largest epsilons, where the displacement
        # stands well clear of the integrator noise floor
        m1 = ds[-2] / eps_grid[-2] ** k_est
        m2 = ds[-1] / eps_grid[-1] ** k_est
        ratio = eps_grid[-1] / eps_grid[-2]
        shooting_vals.append(float((ratio * m1 - m2) / (ratio - 1)))
    k_values = [k for k in ks if k is not None]
    if k_values:
        fitted_k = int(round(np.median([k for k, _ in k_values])))
        fit_res = max(r for _, r in k_values)
    else:
        fitted_k, fit_res = 0, 0.0
    sym_vals = None
    if symbolic is not None:
        sym_vals = eval_genfn(symbolic, spec, annulus, levels).tolist()
    return MelnikovSample(t_grid=list(t_grid), shooting=shooting_vals,
                          symbolic=sym_vals, fitted_k=fitted_k,
                          fit_residual=fit_res, displacements=disp)


# ---------------------------------------------------------------------------
# Zero counting and bounds
# ---------------------------------------------------------------------------

def zero_bound(spec: HamiltonianSpec, annulus: str, n: int, k: int) -> int:
    """Upper bound for isolated zeros of the k-th generating function."""
    if spec.name == "eight-loop" and annulus in ("interior_left", "interior_right"):
        return (3 * k * (n - 1)) // 2
    if spec.name == "eight-loop":
        if k == 1:
            return 2 * ((n - 1) // 2) + 1
        if k == 2:
            return 2 * n + 1
        return 2 * ((k * (n + 1)) // 2) - 3
    if spec.name in ("double-heteroclinic", "global-center"):
        if k == 1:
            return 2 * ((n - 1) // 2)
        if k == 2:
            return 2 * n
        return 2 * ((k * (n + 1)) // 2) - 4
    raise ValueError("no zero bound recorded for this Hamiltonian")


@dataclass
class ZeroCount:
    count: int
    brackets: list
    bound: int | None


def count_zeros(gf: PeriodCombination, spec, annulus, interval, samples=400,
                bound=None) -> ZeroCount:
    """Sign changes of the generating function on a float grid of levels.

    A lower bound on the number of zeros only up to the floats: each
    sample's sign is taken as computed, whatever its quadrature error, and
    a pair of zeros between two samples shows no sign change.  The grid is
    evaluated in one vectorised pass; each sign change is refined by brentq.
    """
    lo, hi = interval
    if samples < 2:
        raise ValidationError(f"need at least 2 samples, got {samples}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"need a finite interval lo < hi, got {lo}:{hi}")
    ts = np.linspace(lo, hi, samples)
    vals = eval_genfn(gf, spec, annulus, ts)
    if not np.any(vals):
        raise NumericsError("generating function is identically zero on the grid")
    brackets = []
    for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
        root = brentq(lambda u: eval_genfn(gf, spec, annulus, float(u)),
                      ts[i], ts[i + 1], xtol=1e-12)
        brackets.append((float(ts[i]), float(ts[i + 1]), float(root)))
    count = len(brackets)
    if bound is not None and count > bound:
        raise NumericsError(f"observed {count} zeros exceeds the bound {bound}")
    return ZeroCount(count=count, brackets=brackets, bound=bound)


# ---------------------------------------------------------------------------
# Asymptotics of the log period near the inner critical value
# ---------------------------------------------------------------------------

def fit_istar_asymptotics(t_values=None):
    """Fit I*(t) ~ a + b t ln^2|t| + c t ln|t| + d t near t -> 0-."""
    if t_values is None:
        t_values = -np.logspace(-4, -2, 12)
    rows = []
    rhs = []
    for t in t_values:
        ov = trace_oval(D4_TRIANGLE, float(t), "main")
        val = integrate_form(ov, ISTAR)
        lt = math.log(abs(t))
        rows.append([1.0, t * lt * lt, t * lt, t])
        rhs.append(val)
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return {"const": float(coef[0]), "t_ln2": float(coef[1]),
            "t_ln": float(coef[2]), "t_lin": float(coef[3])}


def integrate_ext_product(oval: Oval, elem, w: OneForm):
    """Loop integral of (extended element) * (polynomial one-form)."""
    entries = [(j, p, poly.float_terms()) for (j, p), poly in elem.entries.items()]
    phi, t = phi_function(oval.spec), oval.t
    a, b = w.a.float_terms(), w.b.float_terms()

    def ext(x, y):
        ph = phi(x, y)
        out = 0.0
        for j, p, terms in entries:
            out += ph**j * eval_float_terms(terms, x, y, t) / t**p
        return out

    def A(x, y):
        return ext(x, y) * eval_float_terms(a, x, y, t)

    def B(x, y):
        return ext(x, y) * eval_float_terms(b, x, y, t)
    return integrate_form(oval, (A, B))


def d4_ode_residual(gf, ode, t_values, h=2e-3):
    """Worst relative residual of the sampled third-order equation.

    M3 is sampled by high-accuracy quadrature on five-point stencils; the
    first two derivatives use the fourth-order central weights and the
    third derivative the classical five-point third-difference.
    """
    coeffs = [np.poly1d(list(reversed([float(c) for c in p.coeffs])) or [0.0])
              for p in ode.coeffs]
    a1, a2, a3 = coeffs[1], coeffs[2], coeffs[3]

    def M(t):
        return eval_genfn(gf, D4_TRIANGLE, "main", t, epsabs=1e-14, epsrel=1e-13)

    worst = 0.0
    for t in t_values:
        f = [M(t + i * h) for i in range(-2, 3)]
        d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
        d3 = (-f[0] / 2 + f[1] - f[3] + f[4] / 2) / h**3
        terms = [a3(t) * d3, a2(t) * d2, a1(t) * d1]
        worst = max(worst, abs(sum(terms)) / max(abs(v) for v in terms))
    return worst


def fit_m3_log2(gf, t_values=None):
    """Log-square coefficient of M3 + (6 cstar)/t near the inner critical value."""
    if t_values is None:
        t_values = -np.logspace(-4, -2, 12)
    rows = []
    rhs = []
    for t in t_values:
        val = eval_genfn(gf, D4_TRIANGLE, "main", float(t)) + 6.0 * float(gf.cstar) / t
        lt = math.log(abs(t))
        rows.append([1.0, lt * lt, lt])
        rhs.append(val)
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return {"const": float(coef[0]), "ln2": float(coef[1]), "ln": float(coef[2])}
