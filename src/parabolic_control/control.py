"""Optimal initial-data control pipeline.

Solves min J(u) subject to || S_T u + source - ystar || <= eps, where
J(u) = alpha/2 ||u||^2 + 1/2 int_0^T beta(t) ||y(t) - w(t)||^2 dt and the
control u is the initial state.  The closed-form solution is

    u_opt = (mu S_2T + Psi)^{-1} (mu S_T ystar_hom + psi),

with Psi = alpha I + int beta(t) S_2t dt, psi = int beta(t) S_t w_hom dt,
and mu >= 0 the root of Phi(mu) = eps (zero when the unconstrained
minimizer is already feasible).  Every operator function is evaluated as a
fitted partial-fraction rational applied through shifted solves; Phi needs
one shared-pole fit and about a dozen complex solves per evaluation, and its
exact slope in mu, where the root find asks for it, another application on
the same poles.  The root is found by Newton's method on 1/Phi in log mu,
safeguarded by the sign-change bracket (the trust-region secular equation
of Moré & Sorensen, 1983).  Once the steps contract quadratically, the
last Newton point is returned without its confirming Phi evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import symbols as sym
from .operators import DimensionError, MeshFunction, inner_m, norm_m
# every fit goes through fit_cached; fit_rational and fit_rational_shared stay
# bound here because perfbench's tracer self-test checks these bindings
from .rational import (  # noqa: F401
    FitError,
    apply_rational,
    apply_rational_shared,
    fit_cached,
    fit_rational,
    fit_rational_shared,
    semigroup_apply,
)

DEGREE_CAP = 40
MU_BRACKET_CAP = 1e30
_ROOT_EVALS = 100
_LN10 = math.log(10.0)
GAUSS_POINTS = 8

_gauss_x, _gauss_w = np.polynomial.legendre.leggauss(GAUSS_POINTS)


@dataclass(frozen=True)
class ProblemSpec:
    """All data of one control problem on a fixed operator.

    beta_segments partitions [0, T] into ((t0, t1, beta1), ...) with
    piecewise-constant weight; w_segments holds one target-trajectory
    snapshot per segment; f_segments is the piecewise-constant source
    (empty means the homogeneous equation); fit_tol is the tolerance of
    every operator-function fit the problem needs.
    """

    T: float
    alpha: float
    beta_segments: tuple
    w_segments: tuple
    ystar: MeshFunction
    eps: float
    f_segments: tuple = ()
    fit_tol: float = 1e-12

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        if self.alpha <= 0:
            raise ValueError("control weight alpha must be positive")
        if self.eps <= 0:
            raise ValueError("tolerance eps must be positive")
        if self.fit_tol <= 0:
            raise ValueError("fit tolerance fit_tol must be positive")
        if len(self.beta_segments) != len(self.w_segments):
            raise ValueError("need one w snapshot per beta segment")
        t_prev = 0.0
        for (a, b, beta) in self.beta_segments:
            if abs(a - t_prev) > 1e-14 * max(1.0, self.T):
                raise ValueError("beta segments must partition [0, T]")
            if b <= a:
                raise ValueError("beta segment breakpoints must increase")
            if beta < 0:
                raise ValueError("beta must be nonnegative")
            t_prev = b
        if abs(t_prev - self.T) > 1e-14 * max(1.0, self.T):
            raise ValueError("beta segments must end at T")
        for (a, b, _f) in self.f_segments:
            if not 0 <= a < b:
                raise ValueError("source segments need 0 <= a < b")


@dataclass
class HomogenizedData:
    """Source-free reformulation: shifted targets plus the cost gradient data."""

    spec: ProblemSpec
    op: object
    ystar_hom: MeshFunction
    w_hom: tuple
    psi: MeshFunction
    big_psi_symbol: sym.SymbolExpr  # lambda -> alpha + beta0_tilde(lambda)
    # mu -> [Phi(mu), residual r, None] from phi; _phi_slope replaces r by the slope
    _phi_values: dict = field(default_factory=dict, repr=False)
    # st_ystar_hom; PCG reports; the Phi slope each solve_mu root is polished from
    _cache: dict = field(default_factory=dict, repr=False)


@dataclass
class ControlSolution:
    mu_eps: float
    u_opt: MeshFunction
    y_opt: MeshFunction
    cost: float
    kkt: float
    final_miss: float
    phi0: float
    phi_samples: tuple
    # why optimal_control's PCG stopped at mu_eps ("converged", "iterations",
    # "breakdown", "drift": only its recurrence met the target; or "not run")
    # and its true residual, normalized as kkt
    pcg_stop: str = "not run"
    pcg_residual: float = math.nan
    # Phi values this solve computed (cached ones from earlier solves on the
    # same HomogenizedData are not counted)
    phi_evals: int = 0


# ---------------------------------------------------------------------------
# homogenization
# ---------------------------------------------------------------------------

def _segint_fit(a, b, scale, tol):
    r, report = fit_cached(sym.segment_integral(a, b, scale), 32, tol)
    if not report.success:
        raise FitError(f"segment-integral fit failed: {report}", report)
    return r


def source_integral(op, f_segments, t, tol):
    """int_0^t S_{t-tau} f(tau) dtau for piecewise-constant-in-time f, with
    the segment integrals fitted to tolerance tol."""
    out = op.function(np.zeros(op.n))
    if t <= 0:
        return out
    for (a, b, fvec) in f_segments:
        if a >= t:
            continue
        lo = t - min(b, t)
        hi = t - a
        r = _segint_fit(lo, hi, 1, tol)
        out = op.function(out.values + apply_rational(op, r, fvec).values)
    return out


def homogenize(spec, op):
    """Absorb the source into the targets and assemble psi and the Psi symbol."""
    for mf in (spec.ystar, *spec.w_segments, *(f for _, _, f in spec.f_segments)):
        if len(mf.values) != op.n:
            raise DimensionError("problem data does not match operator dimension")
    tol = spec.fit_tol
    ystar_hom = op.function(
        spec.ystar.values - source_integral(op, spec.f_segments, spec.T, tol).values)
    w_hom = []
    for (a, b, _beta), w in zip(spec.beta_segments, spec.w_segments):
        mid = 0.5 * (a + b)
        w_hom.append(op.function(
            w.values - source_integral(op, spec.f_segments, mid, tol).values))
    psi_vals = np.zeros(op.n)
    big_psi = sym.const(spec.alpha)
    for (a, b, beta), wh in zip(spec.beta_segments, w_hom):
        if beta == 0.0:
            continue
        r = _segint_fit(a, b, 1, tol)
        psi_vals = psi_vals + beta * apply_rational(op, r, wh).values
        big_psi = big_psi + sym.const(beta) * sym.segment_integral(a, b, 2)
    return HomogenizedData(
        spec=spec, op=op, ystar_hom=ystar_hom, w_hom=tuple(w_hom),
        psi=op.function(psi_vals), big_psi_symbol=big_psi)


# ---------------------------------------------------------------------------
# operator-function fits for the solution formulas
# ---------------------------------------------------------------------------

def _fit_capped(hd, symbols_list, what):
    fits, report = fit_cached(symbols_list, DEGREE_CAP, hd.spec.fit_tol)
    if not report.success:
        raise FitError(f"{what}: tolerance unreachable at degree {DEGREE_CAP}"
                       f" (best error {report.max_error:.3e})", report)
    return fits


def _uopt_pair(hd, mu):
    T = hd.spec.T
    denom = sym.const(mu) * sym.expm(2 * T) + hd.big_psi_symbol
    return _fit_capped(hd, [(sym.const(mu) * sym.expm(T)) / denom,
                            sym.const(1.0) / denom], f"control fit at mu={mu}")


def u_min(hd, op):
    """Unconstrained minimizer Psi^{-1} psi."""
    r, = _fit_capped(hd, [sym.const(1.0) / hd.big_psi_symbol], "inverse-Psi fit")
    return apply_rational(op, r, hd.psi)


def _phi_pair(hd, mu):
    T = hd.spec.T
    denom = sym.const(mu) * sym.expm(2 * T) + hd.big_psi_symbol
    return _fit_capped(hd, [(sym.const(mu) * sym.expm(2 * T)) / denom,
                            sym.expm(T) / denom], f"phi fit at mu={mu}")


def phi(hd, op, mu):
    """Phi(mu) = ||r||_M with r = ystar_hom - (mu S_2T + Psi)^{-1}(mu S_2T ystar_hom + S_T psi).

    The value is cached in hd._phi_values with r, from which _phi_slope
    computes the slope when a root find asks for it.
    """
    if mu < 0:
        raise ValueError("mu must be >= 0")
    mu = float(mu)
    entry = hd._phi_values.get(mu)
    if entry is None:
        x = apply_rational_shared(op, _phi_pair(hd, mu), [hd.ystar_hom, hd.psi])
        r = hd.ystar_hom.values - x.values
        entry = hd._phi_values[mu] = [norm_m(op, r), r, None]
    return entry[0]


def _phi_slope(hd, op, mu):
    """d log Phi / d log mu = -<r, f1(A) r>_M / Phi^2 at a mu phi has evaluated.

    f1 = mu e^{2T lam} / (mu e^{2T lam} + Psi) is the first fit of the Phi
    pair: A is M-self-adjoint and mu dr/dmu = -f1(A) r, so the slope costs
    one more application on the pair's poles and no new fit or
    factorization.  It is computed on first request and replaces r in the
    cache.  There is no slope (None) at mu = 0, nor where Phi vanishes.
    """
    entry = hd._phi_values[mu]
    val, r, slope = entry
    if slope is None and mu > 0.0 and val > 0.0:
        f1 = _phi_pair(hd, mu)[0]
        entry[1:] = None, -inner_m(op, r, apply_rational(op, f1, r)) / val ** 2
    return entry[2]


def _root(f, target, tol, mu, slope=None, xtol=1e-10):
    """mu with |f(mu) - target| <= tol for a positive, decreasing f, from mu.

    Works in x = log mu on y = log(f / target).  When f returns a pair
    (value, s) with the exact slope s = d log f / d log mu, every step is
    Newton's on 1/f, x <- x + (1 - f/target)/s (Moré & Sorensen, SIAM J.
    Sci. Stat. Comput. 4, 1983), clamped to 3 decades and kept inside the
    sign-change bracket, which it bisects when the step would leave it.
    When f returns its value only, the steps are modified regula falsi
    (Illinois, Dowell & Jarratt, BIT 11, 1971, with the Anderson-Bjorck
    factor): until a sign change brackets the root, the first step is
    Newton's on y with the given slope (a factor 10 without one), later ones
    follow the secant, by a factor between 10 and 10^3.

    Returns the last mu once it meets tol and the correction y / s (also by
    the secant slope over the last step), the secant correction or the
    bracket is within xtol in x (relative in mu).  A Newton step that lands
    inside the bracket is returned unevaluated when the predicted next
    correction C step^2 is within xtol; the error of that point is about
    C step^2 in x and target |s| C step^2 in f.  After a Newton step, C =
    |step| / |last step|^2 is the observed quadratic contraction, trusted
    only when the trapezoid rule on the two reported slopes reproduces the
    change of y over the last step: an inexact slope contracts linearly and
    gets no such return.  Without a last Newton step (the first evaluation,
    say from a nearby root), C = 3/2 bounds the contraction of every f of
    Phi's form: s = -<r, f1 r> / ||r||^2 averages f1 in (0, 1) with weights
    r^2 whose log derivative is -2 f1, so |s| < 1 and |ds/dx| <= 2 |s|, and
    Newton on 1/f contracts by |s^2 - ds/dx| / (2 |s|) <= 3/2; the slope
    itself cannot be checked there.  Raises past MU_BRACKET_CAP or
    _ROOT_EVALS.
    """
    x, prev, xa, ya = math.log(mu), None, None, 0.0
    lo, hi = -math.inf, math.inf    # sign-change bracket of the Newton steps
    last = None     # (step, slope at its start) of a Newton step that led to x
    for _ in range(_ROOT_EVALS):
        if abs(x) > math.log(MU_BRACKET_CAP):
            raise RuntimeError(f"no root of f(mu) = {target:.6g} for mu in [1/cap, cap],"
                               f" cap = {MU_BRACKET_CAP:g}: problem data is inconsistent")
        v = f(mu)
        newton = isinstance(v, tuple)
        if newton:
            v, slope = v
        y = math.log(v / target)
        sec = slope if prev is None else (y - prev[1]) / (x - prev[0])
        if newton:
            if y > 0:
                lo = x
            else:
                hi = x
        elif prev is not None:
            slope = sec
            if y * prev[1] < 0:
                xa, ya = prev
            elif xa is not None:
                m = 1.0 - y / prev[1]
                ya *= m if m > 0 else 0.5
        # the correction y / slope, also by the secant over the last step,
        # so that an inexact reported slope cannot shrink it
        if abs(v - target) <= tol and (
                (slope is not None and abs(y) <= xtol * min(abs(slope), abs(sec)))
                or (xa is not None and abs(x - xa) <= xtol)
                or hi - lo <= xtol):
            return mu
        if newton:
            pure = slope is not None and slope < 0
            step = (1.0 - v / target) / slope if pure else math.copysign(_LN10, y)
            x_new = x + min(max(step, -3 * _LN10), 3 * _LN10)
            if not lo < x_new < hi:
                x_new, pure = 0.5 * (lo + hi), False
            pure = pure and x_new == x + step
            # the next correction is C step^2: C = |step| / last^2 once the
            # trapezoid rule on the two slopes reproduces the change of y (an
            # inexact slope leaves a mismatch of the size of y); C <= 3/2
            # without a last step
            if pure and (last is None or abs(
                    y - prev[1] - 0.5 * (slope + last[1]) * last[0]) <= 0.5 * abs(y)):
                c = 1.5 if last is None else abs(step) / last[0] ** 2
                if c * step ** 2 <= xtol:
                    return math.exp(x_new)
            last = (step, slope) if pure else None
        elif xa is not None:
            x_new = x - y * (x - xa) / (y - ya)
        elif prev is None and slope is not None:
            x_new = x - y / slope
        else:
            step = _LN10 if slope is None or slope >= 0 else \
                min(max(abs(y / slope), _LN10), 3 * _LN10)
            x_new = x + math.copysign(step, y)
        prev = (x, y)
        x, mu = x_new, math.exp(x_new)
    raise RuntimeError(f"root find did not converge in {_ROOT_EVALS} evaluations")


def solve_mu(hd, op, eps, hint=None):
    """Root of Phi(mu) = eps; zero when eps >= Phi(0).

    Newton's method on 1/Phi (see _root), with each value from phi and its
    slope from _phi_slope, starts from hint, a known nearby root (the
    sensitivity sweeps pass the unperturbed one), or from mu = 1.  It stops
    at |Phi(mu) - eps| <= 1e-8 Phi(0) with mu resolved to about 1e-10
    relative.  The returned mu is usually the last Newton point, not
    evaluated: its error is the predicted next correction, within 1e-10 in
    log mu, so |Phi(mu) - eps| is about 1e-10 eps at most, since
    d log Phi / d log mu lies in (-1, 0).  The slope of the last Phi
    evaluated is kept in hd._cache[("root slope", mu)] for the polish in
    solve_problem.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    phi0 = phi(hd, op, 0.0)
    if eps >= phi0:
        return 0.0

    slope = [None]

    def value_and_slope(m):
        v = phi(hd, op, m)
        slope[0] = _phi_slope(hd, op, m)
        return v, slope[0]

    start = hint if hint is not None and hint > 0 else 1.0
    mu = _root(value_and_slope, eps, 1e-8 * phi0, float(start))
    hd._cache[("root slope", mu)] = slope[0]
    return mu


def _apply_stationarity_op(hd, op, mu, v):
    """(mu S_2T + Psi) v through the realized operator fits."""
    r, = _fit_capped(hd, [hd.big_psi_symbol], "Psi fit")
    out = apply_rational(op, r, v).values
    if mu != 0.0:
        out = out + mu * semigroup_apply(op, 2 * hd.spec.T, v).values
    return out


def _stationarity_rhs(hd, op, mu):
    """mu S_T ystar_hom + psi, the right-hand side of the stationarity system."""
    if mu == 0.0:
        return hd.psi.values
    st_y = hd._cache.get("st_ystar_hom")
    if st_y is None:
        st_y = hd._cache["st_ystar_hom"] = semigroup_apply(op, hd.spec.T, hd.ystar_hom)
    return mu * st_y.values + hd.psi.values


def optimal_control(hd, op, mu):
    """u_opt = (mu S_2T + Psi)^{-1} (mu S_T ystar_hom + psi); u_min at mu = 0.

    The direct rational-formula evaluation seeds a preconditioned CG solve
    of the stationarity system on the realized operators (the same fitted
    Psi and semigroup actions the KKT residual measures): large multipliers
    amplify any fit discrepancy by mu, and the Krylov polish removes it at
    the cost of a few reused-factorization applies.  Why PCG stopped and the
    true residual it ended at, normalized as kkt_residual, are kept in
    hd._cache[("pcg", mu)].
    """
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if mu == 0.0:
        return u_min(hd, op)
    mu = float(mu)
    r_a, r_b = _uopt_pair(hd, mu)
    u = apply_rational_shared(op, [r_a, r_b], [hd.ystar_hom, hd.psi]).values
    rhs = _stationarity_rhs(hd, op, mu)

    # PCG in the M-inner product; preconditioner = the 1/(mu e^{2T lam}+Psi) fit
    def apply_b(v):
        return _apply_stationarity_op(hd, op, mu, op.function(v))

    def precond(v):
        return apply_rational(op, r_b, op.function(v)).values

    resid = rhs - apply_b(u)
    scale = max(1.0, norm_m(op, hd.psi))
    target = 1e-10 * scale
    best = (norm_m(op, resid), u)
    stop = "converged"
    if best[0] > target:
        z = precond(resid)
        p = z.copy()
        rz = inner_m(op, resid, z)
        for _ in range(60):
            bp = apply_b(p)
            denom = inner_m(op, p, bp)
            if denom <= 0:
                stop = "breakdown"
                break
            alpha = rz / denom
            u = u + alpha * p
            resid = resid - alpha * bp
            rn = norm_m(op, resid)
            if rn < best[0]:
                best = (rn, u.copy())
            if rn <= target:
                break
            z = precond(resid)
            rz_new = inner_m(op, resid, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        else:
            stop = "iterations"
        best = (norm_m(op, rhs - apply_b(best[1])), best[1])  # recurrence drifts
        if stop == "converged" and best[0] > target:
            stop = "drift"
    hd._cache[("pcg", mu)] = (stop, best[0] / scale)
    return op.function(best[1])


def trajectory(spec, op, u, times):
    """State snapshots y(t) = S_t u + int_0^t S_tau f(t - tau) dtau."""
    out = []
    for t in times:
        if not 0 <= t <= spec.T + 1e-12:
            raise ValueError(f"snapshot time {t} outside [0, T]")
        y = semigroup_apply(op, t, u)
        if spec.f_segments:
            y = op.function(y.values + source_integral(
                op, spec.f_segments, t, spec.fit_tol).values)
        out.append(y)
    return out


def cost_j(spec, op, u):
    """J(u) by 8-point Gauss quadrature in time on every beta segment."""
    total = 0.5 * spec.alpha * inner_m(op, u, u)
    for (a, b, beta), w in zip(spec.beta_segments, spec.w_segments):
        if beta == 0.0:
            continue
        half = 0.5 * (b - a)
        midp = 0.5 * (a + b)
        acc = 0.0
        for xg, wg in zip(_gauss_x, _gauss_w):
            t = midp + half * xg
            y = semigroup_apply(op, t, u)
            if spec.f_segments:
                y = op.function(y.values + source_integral(
                    op, spec.f_segments, t, spec.fit_tol).values)
            diff = y.values - w.values
            acc += wg * float(np.sum(op.M * diff * diff))
        total += 0.5 * beta * half * acc
    return total


def kkt_residual(hd, op, u, mu):
    """|| Psi u - psi + mu (S_2T u - S_T ystar_hom) ||_M / max(1, ||psi||_M)."""
    grad = _apply_stationarity_op(hd, op, mu, u) - _stationarity_rhs(hd, op, mu)
    return norm_m(op, grad) / max(1.0, norm_m(op, hd.psi))


def solve_problem(spec, op, hd=None):
    """End-to-end solve; returns the solution bundle with diagnostics.

    The multiplier from the Phi root find is polished, when needed, by the
    secant root find on the realized final miss ||y(T) - ystar||_M so the
    constraint holds to 1e-7 * Phi(0) even where mu amplifies the route
    difference.  The polish starts from the Phi-route mu, which need not
    have a Phi value of its own, with the exact slope of the last Phi the
    root find evaluated, one small Newton step away.
    """
    if hd is None:
        hd = homogenize(spec, op)
    phi_count = len(hd._phi_values)
    mu = solve_mu(hd, op, spec.eps)
    phi0 = phi(hd, op, 0.0)
    seen = {}

    def miss_at(m):
        u_m = optimal_control(hd, op, m)
        y_m = trajectory(spec, op, u_m, [spec.T])[0]
        seen[m] = (norm_m(op, y_m.values - spec.ystar.values), u_m, y_m)
        return seen[m][0]

    if mu > 0.0:
        mu = _root(miss_at, spec.eps, 1e-7 * phi0, mu,
                   slope=hd._cache[("root slope", mu)], xtol=math.inf)
    else:
        miss_at(mu)
    miss, u, y = seen[mu]
    # for mu > 0, PCG ended on the true stationarity residual of u: the KKT one
    pcg_stop, pcg_residual = hd._cache.get(("pcg", mu), ("not run", math.nan))

    return ControlSolution(
        mu_eps=mu,
        u_opt=u,
        y_opt=y,
        cost=cost_j(spec, op, u),
        kkt=pcg_residual if mu > 0.0 else kkt_residual(hd, op, u, mu),
        final_miss=miss,
        phi0=phi0,
        phi_samples=tuple(sorted((m, e[0]) for m, e in hd._phi_values.items())),
        pcg_stop=pcg_stop,
        pcg_residual=pcg_residual,
        phi_evals=len(hd._phi_values) - phi_count,
    )
