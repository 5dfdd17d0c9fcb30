"""Floating-point oracles: oval quadrature, return-map shooting, zero counts.

Ovals are parameterized through the angle substitution x = c + r sin(theta),
which removes the square-root endpoint singularity of the y-branches: each
family's y^2 factors explicitly, so y = r cos(theta) S(x) with a smooth
positive S.  Every period integrated here is one weighted moment
int p(x) (ln x)^b y^s dx (an algebra.Period) under one quadrature kernel;
general one-forms take the two-arc path.  Orientation follows the
unperturbed flow for the quartic family (clockwise in the plane); the
triangle ovals are taken counterclockwise, matching the convention under
which the log period tends to -6 at the inner critical value.  Shooting
reads the flow's direction from the oval's orientation, so only
trace_oval looks at the Hamiltonian's family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .algebra import (D4_TRIANGLE, ISTAR, GenFn, HamiltonianSpec, OneForm, Period,
                      ValidationError)


class NumericsError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Oval geometry
# ---------------------------------------------------------------------------

@dataclass
class Oval:
    """One closed level curve with an explicit two-arc parameterization."""
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


def _a3_branch_data(spec: HamiltonianSpec, t: float, annulus: str):
    s, e = spec.s, spec.e
    if spec.name == "eight-loop":
        if annulus in ("interior_left", "interior_right"):
            if not (0.0 < t < 0.25):
                raise NumericsError("level outside the interior annulus")
            xm = math.sqrt(1 - 2 * math.sqrt(t))
            xp = math.sqrt(1 + 2 * math.sqrt(t))
            if annulus == "interior_right":
                lo, hi = xm, xp
                S = lambda x: np.sqrt((xp + x) * (x + xm) / 2.0)
            else:
                lo, hi = -xp, -xm
                S = lambda x: np.sqrt((xp - x) * (xm - x) / 2.0)
        else:
            if not (t > 0.25):
                raise NumericsError("level outside the exterior annulus")
            X = math.sqrt(1 + 2 * math.sqrt(t))
            c2 = 2 * math.sqrt(t) - 1
            lo, hi = -X, X
            S = lambda x: np.sqrt((x * x + c2) / 2.0)
    elif spec.name == "double-heteroclinic":
        if not (-0.25 < t < 0.0):
            raise NumericsError("level outside the annulus")
        a = math.sqrt(1 - 2 * math.sqrt(-t))
        b2 = 1 + 2 * math.sqrt(-t)
        lo, hi = -a, a
        S = lambda x: np.sqrt((b2 - x * x) / 2.0)
    elif spec.name == "global-center":
        if not (t > 0.25):
            raise NumericsError("level outside the annulus")
        a = math.sqrt(2 * math.sqrt(t) - 1)
        c2 = 1 + 2 * math.sqrt(t)
        lo, hi = -a, a
        S = lambda x: np.sqrt((x * x + c2) / 2.0)
    else:
        raise ValueError(spec.name)
    gp = lambda x: -2.0 * s * x * (x * x - e)
    return lo, hi, S, gp


def _d4_roots(t: float):
    """Roots of x (x-3)^2 + t = 0; the oval spans the two smallest."""
    r = np.roots([1.0, -6.0, 9.0, t])
    r = np.sort(r.real[np.abs(r.imag) < 1e-9])
    if len(r) != 3:
        raise NumericsError("triangle level outside the oval range")
    # Newton polish
    out = []
    for x in r:
        for _ in range(40):
            fv = ((x - 6) * x + 9) * x + t
            dv = (3 * x - 12) * x + 9
            step = fv / dv
            x -= step
            if abs(step) < 1e-15 * max(1.0, abs(x)):
                break
        out.append(x)
    return out


def trace_oval(spec: HamiltonianSpec, t: float, annulus: str,
               margin: float = 1e-6) -> Oval:
    """Build the oval object for a level strictly inside the annulus."""
    if annulus not in spec.annuli:
        raise ValidationError(f"unknown annulus {annulus!r} for {spec.name}")
    lo_t, hi_t = spec.sigma_range(annulus)
    width = (hi_t - lo_t) if math.isfinite(hi_t) else max(1.0, abs(t) + 1.0)
    if not (lo_t + margin * width < t) or (math.isfinite(hi_t) and not (t < hi_t - margin * width)):
        raise NumericsError(f"level {t} outside the annulus interval")
    if spec.kind == "quartic":
        lo, hi, S, gp = _a3_branch_data(spec, t, annulus)
        return Oval(spec=spec, t=t, annulus=annulus, x_lo=lo, x_hi=hi,
                    smooth_factor=S, g_prime=gp, orientation=+1)
    r1, r2, r3 = _d4_roots(t)
    S = lambda x: np.sqrt((r3 - x) / x)
    gp = lambda x: -t / (x * x) + 2.0 * (x - 3.0)
    return Oval(spec=spec, t=t, annulus=annulus, x_lo=r1, x_hi=r2,
                smooth_factor=S, g_prime=gp, orientation=-1)


# ---------------------------------------------------------------------------
# Quadrature of one-forms over ovals
# ---------------------------------------------------------------------------

def _integrand_functions(oval: Oval, integrand):
    """Return F(theta) for the clockwise loop integral of the integrand: a
    Period, a OneForm, or a pair (A, B) of callables for A dx + B dy."""
    r = oval.radius

    if isinstance(integrand, Period):
        # y = rc S(x) and dx = rc dtheta with rc = r cos(theta); an odd power
        # of y makes the two arcs contribute equally
        p, log, ypow = integrand
        if ypow % 2 == 0:
            raise ValueError(f"even power of y in {integrand!r}: the two arcs cancel")
        c, S, n = oval.center, oval.smooth_factor, abs(ypow)

        def F(theta):
            x = c + r * math.sin(theta)
            rc = r * math.cos(theta)
            v = 0.0
            for k, a in p:
                v += a * x ** k
            if log:
                v *= math.log(x) ** log
            v = 2.0 * v * rc ** (ypow + 1)
            sx = S(x) if n == 1 else S(x) ** n
            return v * sx if ypow > 0 else v / sx
        return F

    if isinstance(integrand, OneForm):
        a = integrand.a
        b = integrand.b
        tval = oval.t

        def A(x, y):
            return a.eval_float(x, y, tval)

        def B(x, y):
            return b.eval_float(x, y, tval)
    else:
        A, B = integrand  # pair of callables

    def F(theta):
        x = oval.x_of(theta)
        y = oval.y_top(theta)
        dx = r * np.cos(theta)
        dy = oval.dy_top(theta)
        return (A(x, y) - A(x, -y)) * dx + (B(x, y) + B(x, -y)) * dy
    return F


def integrate_form(oval: Oval, integrand, epsabs=1e-13, epsrel=1e-11) -> float:
    """Adaptive quadrature of a Period or a one-form over the oval, oriented
    as traced."""
    import warnings
    from scipy.integrate import IntegrationWarning
    if isinstance(integrand, Period) and oval.x_lo <= 0 \
            and (integrand.log or any(k < 0 for k, _ in integrand.p)):
        raise NumericsError("integrand singular on or inside the oval")
    F = _integrand_functions(oval, integrand)
    with warnings.catch_warnings():
        # round-off warnings near the requested tolerance are adjudicated
        # through the returned error estimate instead
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(F, -np.pi / 2, np.pi / 2, epsabs=epsabs, epsrel=epsrel,
                        limit=400)
    if err > 1e-6 * max(1.0, abs(val)):
        raise NumericsError(f"quadrature failed to converge (error {err:.2e})")
    return oval.orientation * val


# {(Hamiltonian, annulus, Period, epsabs, epsrel): {level: value}}, keyed on
# everything that changes the value.  Each map keeps the MAX_CACHED_LEVELS
# levels inserted last.
_MOMENT_CACHE = {}
MAX_CACHED_LEVELS = 4096


def period_values(spec, annulus, t, basis, epsabs=1e-13, epsrel=1e-11) -> list:
    """Values of the periods in `basis` on the oval at level t, cached; the
    missing ones are integrated over one traced oval."""
    key, oval, values = float(t), None, []
    for period in basis:
        cache = _MOMENT_CACHE.setdefault((spec.name, spec.s, spec.e, annulus, period,
                                          epsabs, epsrel), {})
        if key not in cache:
            if len(cache) >= MAX_CACHED_LEVELS:
                del cache[next(iter(cache))]
            oval = oval or trace_oval(spec, t, annulus)
            cache[key] = integrate_form(oval, period, epsabs, epsrel)
        values.append(cache[key])
    return values


def moment(spec, annulus, t, k, epsabs=1e-13, epsrel=1e-11) -> float:
    return period_values(spec, annulus, t, (Period.moment(k),), epsabs, epsrel)[0]


# ---------------------------------------------------------------------------
# Symbolic generating functions evaluated through quadrature
# ---------------------------------------------------------------------------

def eval_genfn(gf: GenFn, spec, annulus, t, epsabs=1e-13, epsrel=1e-11) -> float:
    """Float value at level t of a generating function of either family."""
    return gf.combine(period_values(spec, annulus, t, gf.basis, epsabs, epsrel), t)


# ---------------------------------------------------------------------------
# phi closures for the quartic family
# ---------------------------------------------------------------------------

def phi_function(spec: HamiltonianSpec):
    if spec.name == "eight-loop":
        def phi(x, y):
            if y == 0:
                return 0.0
            return (math.atan((x * x - 1) / (y * math.sqrt(2)))
                    - (math.pi / 2) * math.copysign(1.0, y)) / math.sqrt(2)
        return phi
    if spec.name == "double-heteroclinic":
        def phi(x, y):
            u = 1 - x * x
            return math.log((u - math.sqrt(2) * y) / (u + math.sqrt(2) * y)) / (2 * math.sqrt(2))
        return phi
    if spec.name == "global-center":
        def phi(x, y):
            return -math.atan(math.sqrt(2) * y / (x * x + 1)) / math.sqrt(2)
        return phi
    raise ValueError(f"no phi closure for {spec.name}")


@dataclass
class PhiReport:
    total_increment: float
    endpoint_values: tuple
    identity_residual: float


def phi_check(spec: HamiltonianSpec, t: float, annulus: str = None) -> PhiReport:
    """Single-valuedness and differential identity of phi along an oval."""
    annulus = annulus or ("exterior" if spec.name == "eight-loop" else "main")
    if not spec.is_exterior(annulus):
        raise NumericsError("phi is attached to the symmetric annuli")
    ov = trace_oval(spec, t, annulus)
    phi = phi_function(spec)
    pts = ov.points(n=4000)
    vals = [phi(x, y) for x, y in pts]
    inc = 0.0
    for i in range(len(vals)):
        dv = vals[(i + 1) % len(vals)] - vals[i]
        inc += dv
    endpoints = (phi(ov.x_hi, 0.0), phi(ov.x_lo, 0.0))
    # H dphi = (x y / 2) dx - (x^2 - e)/4 dy, checked through finite
    # differences of the closed form at sample points off the axis
    e = spec.e
    h = spec.h_poly
    resid = 0.0
    for theta in np.linspace(-1.2, 1.2, 10):
        x = ov.x_of(theta)
        y = ov.y_top(theta)
        eps = 1e-6
        dphix = (phi(x + eps, y) - phi(x - eps, y)) / (2 * eps)
        dphiy = (phi(x, y + eps) - phi(x, y - eps)) / (2 * eps)
        hv = h.eval_float(x, y)
        resid = max(resid, abs(hv * dphix - x * y / 2),
                    abs(hv * dphiy + (x * x - e) / 4))
    return PhiReport(total_increment=inc, endpoint_values=endpoints,
                     identity_residual=resid)


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


def _period_estimate(oval: Oval) -> float:
    """Time around the oval: the period of dx / x_dot = dx / H_y, with
    H_y = m x^i y for every Hamiltonian here."""
    ((i, _, _), m), = oval.spec.h_poly.dy().terms.items()
    return abs(integrate_form(oval, Period(((-i, 1 / float(m)),), 0, -1)))


def _start_and_direction(annulus, oval):
    """Start point on the x-axis and the sign of y' at the return there,
    for the flow traversing the oval in its orientation."""
    if annulus == "interior_left":
        return (oval.x_lo, 0.0), oval.orientation
    return (oval.x_hi, 0.0), -oval.orientation


def shooting_oracle(spec: HamiltonianSpec, w: OneForm, annulus: str,
                    t_grid, eps_grid=None, symbolic: GenFn | None = None) -> MelnikovSample:
    """Estimate the order and size of the displacement map by integration.

    Integrates the perturbed flow from the horizontal section, locates the
    return through a direction-filtered section crossing, fits the leading
    epsilon power by least squares on the geometric epsilon grid and
    extrapolates the coefficient.
    """
    if eps_grid is None:
        eps_grid = [1e-3, 2e-3, 4e-3, 8e-3]
    eps_grid = sorted(eps_grid)
    if len(eps_grid) < 4 or not all(0 < e <= 1e-2 for e in eps_grid):
        raise ValidationError("need at least four epsilon values in (0, 1e-2]")
    h = spec.h_poly
    hx, hy = h.dx(), h.dy()
    fpol = -w.b
    gpol = w.a

    disp = {}
    shooting_vals = []
    ks = []
    for t in t_grid:
        oval = trace_oval(spec, t, annulus)
        T0 = _period_estimate(oval)
        (x0, y0), direction = _start_and_direction(annulus, oval)
        sign = oval.orientation
        for eps in eps_grid:
            def rhs(_s, u):
                x, y = u
                return [sign * (hy.eval_float(x, y) + eps * fpol.eval_float(x, y)),
                        sign * (-hx.eval_float(x, y) + eps * gpol.eval_float(x, y))]

            def section(_s, u):
                return u[1]
            section.terminal = True
            section.direction = direction
            sol1 = solve_ivp(rhs, (0.0, 0.35 * T0), [x0, y0], method="DOP853",
                             rtol=1e-12, atol=1e-12)
            if not sol1.success:
                raise NumericsError("integration failed before the section")
            sol2 = solve_ivp(rhs, (0.0, 4.0 * T0), sol1.y[:, -1], method="DOP853",
                             rtol=1e-12, atol=1e-12, events=section)
            if not sol2.success or not len(sol2.t_events[0]):
                raise NumericsError("no return to the section (near a separatrix?)")
            xe, ye = sol2.y_events[0][0]
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
        sym_vals = [eval_genfn(symbolic, spec, annulus, t) for t in t_grid]
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


def count_zeros(gf: GenFn, spec, annulus, interval, samples=400, bound=None) -> ZeroCount:
    """Certified lower bound on the number of zeros by sign-change scanning."""
    lo, hi = interval
    ts = np.linspace(lo, hi, samples)
    vals = [eval_genfn(gf, spec, annulus, float(t)) for t in ts]
    if all(v == 0 for v in vals):
        raise NumericsError("generating function is identically zero on the grid")
    brackets = []
    for i in range(len(ts) - 1):
        if vals[i] == 0.0:
            continue
        if vals[i] * vals[i + 1] < 0:
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


def ext_eval(elem, spec, x, y, t):
    """Float value of a log-extended element at a point of the level set."""
    phi = phi_function(spec)(x, y)
    out = 0.0
    for (j, p), poly in elem.entries.items():
        out += phi**j * poly.eval_float(x, y, t) / t**p
    return out


def integrate_ext_product(oval: Oval, elem, w: OneForm):
    """Loop integral of (extended element) * (polynomial one-form)."""
    spec, t = oval.spec, oval.t

    def A(x, y):
        return ext_eval(elem, spec, x, y, t) * w.a.eval_float(x, y, t)

    def B(x, y):
        return ext_eval(elem, spec, x, y, t) * w.b.eval_float(x, y, t)
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
