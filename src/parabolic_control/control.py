"""Optimal initial-data control pipeline.

Solves min J(u) subject to || S_T u + source - ystar || <= eps, where
J(u) = alpha/2 ||u||^2 + 1/2 int_0^T beta(t) ||y(t) - w(t)||^2 dt and the
control u is the initial state.  J is the quadratic form

    J(u) = 1/2 <u, Psi u> - <u, psi> + c,

with Psi = alpha I + int beta(t) S_2t dt, psi = int beta(t) S_t (w(t) -
p(t)) dt, p(t) = int_0^t S_{t-tau} f(tau) dtau the source response, and c
= J(0).  The closed-form solution is

    u_opt = (mu S_2T + Psi)^{-1} (mu S_T ystar_hom + psi),

with ystar_hom = ystar - p(T) and mu >= 0 the root of Phi(mu) = eps (zero
when the unconstrained minimizer Psi^{-1} psi is already feasible).  Per
multiplier both need one operator function, the resolvent r_mu(lam) = 1 /
(mu e^{2T lam} + Psi(lam)): u_opt = r_mu(A)(mu S_T ystar_hom + psi) and
Phi(mu) = ||r_mu(A) g||_M, g = Psi ystar_hom - S_T psi.  Every operator
function is a fitted partial-fraction rational applied through shifted
solves, every fit requested through rational.fit_required.  The functions
that do not depend on mu (the segment integrals and source responses of
psi, those of p(T), S_T = e^{TA}, Psi and r_0 = 1/Psi; a short SI(0, h, 1)
has a fit of its own) are one fit, the problem fit, on one shared pole set.
homogenize alone makes it and HomogenizedData keeps it; one fit and one set of
factors serve psi, ystar_hom, g, S_T ystar_hom, Phi(0), the control at
mu = 0, the cost, every stationarity residual and the realized final state
S_T u + p(T).  A state y(t) = S_t u + p(t) is likewise one shared fit per
time t, of e^{t lam} and p(t)'s segment integrals (trajectory; J(0)'s Gauss
nodes take p(t) the same way).  The root is found on a Ritz surrogate of Phi, a
rational Gauss quadrature on a rational Krylov space built once per problem
by Arnoldi passes over the factors the solve holds anyway (the S_2T and
problem-fit poles), where a value costs microseconds; the Phi curve is read
from the same space.  One exact Phi value certifies that root; where it
misses, the root find runs on the exact Phi.  A control is one routine
(_refine) that returns u with the products Psi u and S_2T u and its stop
report; nothing of it is kept on HomogenizedData.  Every control of a solve
refines on the certified root's resolvent, which the certificate fitted and
factored: the realized-miss polish continues each one from the previous
control and its products, within 10 % of the root, so a solve makes no fit
after its certificate (nor a factorization, but S_2T's where the surrogate's
space ran no solve).

Factors live as long as what they serve, each set on an operator of its
own (DiscreteOperator.child shares every array of the operator):
- the problem fit's on the problem's child of the operator, which
  homogenize takes from a weak registry by operator and problem-fit
  request (_problem_ops.child): live problems that share T, alpha, beta
  and the source segments share it, and it goes with the last of them.
  The child of the most recently homogenized problem stays until a
  problem with another request, or on another operator, is homogenized,
  so consecutive problems of one request (one-row sensitivity sweeps)
  factor the fit once;
- a resolvent r_mu's, mu > 0, on another child, which HomogenizedData
  holds and solve_problem drops when it returns: they serve one solve;
- those of the functions of time alone (S_2T, a state's S_t and p(t), a
  lone segment integral) on the operator itself, for its life.
So a sweep of solves holds the factors of S_2T, of one problem fit and of
one root at a time, and a sweep of problems those of S_2T and of the
problem fits of the problems alive.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import symbols as sym
from .operators import DimensionError, MeshFunction, inner_m, norm_m, solve_shifted
# every fit goes through fit_required; fit_rational and fit_rational_shared
# stay bound for perfbench's tracer self-test
from .rational import (  # noqa: F401
    apply_rational,
    apply_rational_shared,
    fit_rational,
    fit_rational_shared,
    fit_required,
    semigroup_apply,
)

MU_BRACKET_CAP = 1e30
_ROOT_EVALS = 100
# the residual cut each refinement step must make, and the polish's window
# |mu - root| <= _CUT root, within which the certified root's resolvent
# contracts the refinement by that cut
_CUT = 0.1
_LN10 = math.log(10.0)


@dataclass(frozen=True)
class ProblemSpec:
    """All data of one control problem on a fixed operator.

    beta_segments partitions [0, T] into ((t0, t1, beta1), ...) with
    piecewise-constant weight; w_segments holds one target-trajectory
    snapshot per segment; f_segments is the piecewise-constant source
    (empty means the homogeneous equation).  Every operator-function fit
    the problem needs is made at rational.FIT_TOL.
    """

    T: float
    alpha: float
    beta_segments: tuple
    w_segments: tuple
    ystar: MeshFunction
    eps: float
    f_segments: tuple = ()

    def __post_init__(self):
        # each check is written so that NaN fails it; eps = inf means no
        # constraint
        if not 0 < self.T < math.inf:
            raise ValueError("horizon T must be positive and finite")
        if not 0 < self.alpha < math.inf:
            raise ValueError("control weight alpha must be positive and finite")
        if not self.eps > 0:
            raise ValueError("tolerance eps must be positive")
        if len(self.beta_segments) != len(self.w_segments):
            raise ValueError("need one w snapshot per beta segment")
        t_prev = 0.0
        for (a, b, beta) in self.beta_segments:
            if not abs(a - t_prev) <= 1e-14 * max(1.0, self.T):
                raise ValueError("beta segments must partition [0, T]")
            if not b > a:
                raise ValueError("beta segment breakpoints must increase")
            if not 0 <= beta < math.inf:
                raise ValueError("beta must be nonnegative and finite")
            t_prev = b
        if not abs(t_prev - self.T) <= 1e-14 * max(1.0, self.T):
            raise ValueError("beta segments must end at T")
        for (a, b, f) in self.f_segments:
            if not 0 <= a < b:
                raise ValueError("source segments need 0 <= a < b")
            if not np.all(np.isfinite(f.values)):
                raise ValueError("source f must be finite")
        if not np.all(np.isfinite(self.ystar.values)):
            raise ValueError("final target ystar must be finite")
        if not all(np.all(np.isfinite(w.values)) for w in self.w_segments):
            raise ValueError("target trajectory w must be finite")


@dataclass
class HomogenizedData:
    """Source-free reformulation: the shifted final target plus the cost
    gradient data psi and Psi.

    It also keeps what one problem computes on its operator op, each value
    once: the Phi values, and as lazy attributes S_T ystar_hom, g = Psi
    ystar_hom - S_T psi, the constant J(0) and the base space of the Phi
    surrogate.  Nothing else is written to it after homogenize but the
    child of op that holds the resolvents' factors (resolvent_op), so its
    arrays stay the same over any number of solves; a control returns its
    own products and stop report (_refine).  It owns the problem fit, which
    homogenize made and applied for psi and ystar_hom: every later reader (g,
    S_T ystar_hom, the surrogate's poles, r_0, Psi u, the cost and the final
    state) takes S_T, Psi and r_0 from problem_fit and looks no fit up again.
    Each of them applies it through problem_op, the child of op that caches
    its factors and that live problems with the same problem-fit request
    share (_problem_ops.child): they are released with the last such
    problem.
    """

    spec: ProblemSpec
    op: object
    ystar_hom: MeshFunction
    psi: MeshFunction
    big_psi_symbol: sym.SymbolExpr  # lambda -> alpha + beta0_tilde(lambda)
    # the problem fit's components (see homogenize), the last three S_T, Psi
    # and r_0
    problem_fit: tuple
    # the child of op through which every apply of problem_fit runs
    problem_op: object
    # mu -> Phi(mu), every value phi computed
    _phi_values: dict = field(default_factory=dict, repr=False)

    @cached_property
    def st_ystar_hom(self):
        """S_T ystar_hom, the mu-free part of the stationarity right-hand
        side, through the problem fit's S_T component."""
        return apply_rational(self.problem_op, self.problem_fit[-3], self.ystar_hom)

    @cached_property
    def g(self):
        """g = Psi ystar_hom - S_T psi, the problem fit's Psi and S_T
        components applied in one pass over its poles: Phi(mu) = ||r_mu(A)
        g||_M."""
        *_, s_t, big_psi, _ = self.problem_fit
        return apply_rational_shared(self.problem_op, [big_psi, s_t],
                                     [self.ystar_hom, -self.psi.values])

    @cached_property
    def cost_constant(self):
        """c = J(0) = 1/2 sum_k beta_k int_{a_k}^{b_k} ||w_k - p(t)||_M^2 dt.

        Without a source it is 1/2 sum_k beta_k (b_k - a_k) ||w_k||_M^2.  With
        one, an 8-point Gauss rule on every panel between the source
        breakpoints inside [a_k, b_k] integrates the data-only integrand;
        p(t) is smooth on each panel, and at each node it is one shared fit
        of the active segments' integrals (_state).
        """
        spec, op = self.spec, self.op
        nodes, weights = np.polynomial.legendre.leggauss(8)
        c = 0.0
        for (a, b, beta), w in zip(spec.beta_segments, spec.w_segments):
            if beta == 0.0:
                continue
            if not spec.f_segments:
                c += 0.5 * beta * (b - a) * inner_m(op, w, w)
                continue
            cuts = sorted({a, b, *(t for c_j, d_j, _ in spec.f_segments
                                   for t in (c_j, d_j) if a < t < b)})
            for lo, hi in zip(cuts, cuts[1:]):
                half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
                for x, wt in zip(nodes, weights):
                    t = mid + half * x
                    diff = w.values - _state(op, _source_terms(spec.f_segments, t), t)
                    c += 0.5 * beta * half * wt * inner_m(op, diff, diff)
        return c

    @cached_property
    def surrogate_base(self):
        """The Ritz data (theta, c^2, Psi(theta)) of the Phi surrogate (see
        _phi_surrogate) on its rational Krylov space of g.

        The Arnoldi runs over the pole list (S_2T, P, P) x 2 + P, with P the
        problem fit's poles (the poles of S_T, Psi and r_0), each solved
        through the operator that caches its fit's factors (op for S_2T,
        problem_op for P), so every pass after the first costs shifted
        solves but no fit and no factorization.
        Against the dense oracle over mu in [1e-7, 1e12] the surrogate is
        within 6.7e-13 Phi(0) on the 2D h = 1/30 problem and 8.9e-13 on 1D
        n_el = 1000.  In 2D the list (S_2T, P, P) x 2 measured 1.3e-9, and
        (S_T, S_2T, Psi, r_0) x 2, the poles of every fit, measured the same
        6.7e-13 with 84 solves and 163 columns, where this list takes 72 and
        140.  On a small mesh (1D n = 61) the space is the whole space.
        """
        op = self.op
        g = np.sqrt(op.M) * self.g.values
        shared = [(self.problem_op, p) for p in self.problem_fit[0].poles]
        t = 2 * self.spec.T
        (s2t,) = fit_required([sym.expm(t)], f"semigroup fit at t={t}")
        solves = [*((op, p) for p in s2t.poles), *shared, *shared] * 2 + shared
        return _ritz(self, _rational_arnoldi(op, g, solves), g)

    @cached_property
    def resolvent_op(self):
        """The child of op (DiscreteOperator.child) that caches the factors
        of the resolvents r_mu, mu > 0, which phi's certificate and the
        control apply through it.  Every mu-free function is applied through
        problem_op (the problem fit) or op (S_2T and S_t), so its factors
        serve every solve and none is made twice.  solve_problem drops the
        child when it returns (_drop_resolvents): a later phi or
        optimal_control at mu > 0, the solve's mu_eps included, makes a new
        one and factors r_mu again.
        """
        return self.op.child()


@dataclass
class ControlSolution:
    mu_eps: float
    u_opt: MeshFunction
    y_opt: MeshFunction
    cost: float
    kkt: float
    final_miss: float
    phi0: float
    # why the control's refinement stopped at mu_eps, "converged" or
    # "stalled" (see _refine); "not run" for the dense oracle
    pcg_stop: str = "not run"
    # Phi values this solve computed (cached ones from earlier solves on the
    # same HomogenizedData are not counted)
    phi_evals: int = 0


# ---------------------------------------------------------------------------
# homogenization
# ---------------------------------------------------------------------------

def homogenize(spec, op):
    """Absorb the source into the final target and assemble psi and the Psi
    symbol, both exact in time.

    psi = sum_k beta_k [I_k(A) w_k - sum_j G_kj(A) f_j] over the beta
    segments [a_k, b_k] and the source segments [c_j, d_j], with I_k =
    int_{a_k}^{b_k} e^{t lam} dt and G_kj = int_{a_k}^{b_k}
    int_{c_j}^{min(d_j, t)} e^{(2t - tau) lam} dtau dt
    (symbols.SourceResponseIntegral), so J(u) = 1/2 <u, Psi u> - <u, psi> +
    J(0) holds with a source too; ystar_hom = ystar - p(T).  homogenize
    alone makes the problem fit, of the shared symbols of psi's and p(T)'s
    terms (_split), S_T, Psi and r_0 = 1/Psi; psi and p(T) are one pass each
    over its poles, with its leading components by position (_apply), through
    the problem's child of op (_problem_ops.child).
    """
    for mf in (spec.ystar, *spec.w_segments, *(f for _, _, f in spec.f_segments)):
        if len(mf.values) != op.n:
            raise DimensionError("problem data does not match operator dimension")
    big_psi, T = _big_psi(spec), spec.T
    psi_shared, psi_lone = _split(_psi_terms(spec), T)
    p_shared, p_lone = _split(_source_terms(spec.f_segments, T), T)
    symbols = [*(g for g, _ in psi_shared + p_shared), sym.expm(T), big_psi,
               sym.const(1.0) / big_psi]
    problem_op = _problem_ops.child(op, tuple(g.key for g in symbols))
    fits = fit_required(symbols, "problem fit")
    p_t = _apply(op, p_shared, fits[len(psi_shared):], p_lone, problem_op)
    return HomogenizedData(spec=spec, op=op, ystar_hom=op.function(spec.ystar.values - p_t),
                           psi=op.function(_apply(op, psi_shared, fits, psi_lone, problem_op)),
                           big_psi_symbol=big_psi, problem_fit=fits, problem_op=problem_op)


class _ProblemOps:
    """The children of operators that cache the factors of problem fits:
    each live one by (id(op), request), held weakly, and the latest one,
    held strongly.  An entry goes with its child, which refers to op, so
    op's id is not reused while the entry lives."""

    def __init__(self):
        self.live = weakref.WeakValueDictionary()
        self.latest = None

    def child(self, op, request):
        """The child of op that caches the factors of the problem fit of
        request (fit_required's key of its symbols): the one that live
        problems on op with that request share, or a new one.  The latest
        child stays alive after its problems are gone, until a problem with
        another request, or on another operator, is homogenized; it is
        released before that problem's fit is made and factored."""
        kid = self.live.get((id(op), request))
        if kid is None:
            self.latest = None
            kid = self.live[id(op), request] = op.child()
        self.latest = kid
        return kid


_problem_ops = _ProblemOps()


def _psi_terms(spec):
    """psi's terms (symbol, vector): (I_k, beta_k w_k) per active beta segment
    k, then (G_kj, -beta_k f_j) per such k and source segment with c_j < b_k."""
    active = [(a, b, beta, w.values) for (a, b, beta), w
              in zip(spec.beta_segments, spec.w_segments) if beta != 0.0]
    return [(sym.segment_integral(a, b, 1), beta * w) for a, b, beta, w in active] + [
        (sym.source_response_integral(a, b, c, d), -beta * f.values)
        for a, b, beta, _ in active for c, d, f in spec.f_segments if c < b]


def _source_terms(f_segments, t):
    """p(t)'s terms (SI(t - min(d_j, t), t - c_j, 1), f_j), one per c_j < t:
    p(t) = int_0^t S_{t-tau} f(tau) dtau for piecewise-constant f."""
    return [(sym.segment_integral(t - min(d, t), t - c, 1), f.values)
            for c, d, f in f_segments if c < t]


def _state(op, terms, t):
    """sum_i g_i(A) v_i over the terms (g_i, v_i) of one time t, a state y(t)
    or its source response p(t): the shared terms (_split) as one fit,
    applied in one pass."""
    shared, lone = _split(terms, t)
    fits = fit_required([g for g, _ in shared], f"state fit at t={t}") if shared else ()
    return _apply(op, shared, fits, lone, op)


def _split(terms, t):
    """(shared, lone) in order: the terms (g, v) of time t for one shared fit,
    and each SI(0, h, 1) with h < cut = 1e-4 max(1, t), whose adaptive fit
    misses FIT_TOL (from h = 3e-5 at t = 0.01, 1e-4 at t = 10), for the
    rescaled ready-made fit of SI(0, 1, 1).  SI(d, b, 1) with 0 < d < cut
    misses too (7.1e-14 against 3.5e-14 at d = 1.99e-5): it is taken as
    SI(0, b, 1) v + SI(0, d, 1) (-v)."""
    cut = 1e-4 * max(1.0, t)
    shared, lone = [], []
    for g, v in terms:
        pieces = [(g, v)]
        if isinstance(g, sym.SegmentIntegral) and 0.0 < g.a < cut:
            pieces = [(sym.segment_integral(0.0, g.b, g.scale), v),
                      (sym.segment_integral(0.0, g.a, g.scale), -v)]
        for h, w in pieces:
            short = isinstance(h, sym.SegmentIntegral) and h.a == 0.0 and h.b < cut
            (lone if short else shared).append((h, w))
    return shared, lone


def _apply(op, shared, fits, lone, fit_op):
    """sum_i g_i(A) v_i over the terms (g_i, v_i): the shared ones with the
    leading fits, paired by position, in one pass through fit_op (op or a
    child of it); each lone one through a fit of its own, on op."""
    out = apply_rational_shared(fit_op, fits[:len(shared)], [v for _, v in shared]).values \
        if shared else np.zeros(op.n)
    for g, v in lone:
        out = out + apply_rational(op, *fit_required([g], "segment-integral fit"), v).values
    return out


# ---------------------------------------------------------------------------
# operator-function fits for the solution formulas
# ---------------------------------------------------------------------------

def _big_psi(spec):
    """The Psi symbol, lambda -> alpha + sum_k beta_k SI(a_k, b_k, 2)(lambda)."""
    big_psi = sym.const(spec.alpha)
    for (a, b, beta) in spec.beta_segments:
        if beta != 0.0:
            big_psi = big_psi + sym.const(beta) * sym.segment_integral(a, b, 2)
    return big_psi


def _resolvent(hd, mu):
    """r_mu(lam) = 1 / (mu e^{2T lam} + Psi(lam)), the one operator function
    that Phi and the control need at mu, as the pair (operator, fit) that
    apply_rational takes: r_0 is the problem fit's, applied through
    hd.problem_op, and every other r_mu is a fit of its own, applied through
    hd.resolvent_op."""
    if mu == 0.0:
        return hd.problem_op, hd.problem_fit[-1]
    denom = sym.const(mu) * sym.expm(2 * hd.spec.T) + hd.big_psi_symbol
    return hd.resolvent_op, fit_required([sym.const(1.0) / denom],
                                         f"resolvent fit at mu={mu}")[0]


def _drop_resolvents(hd):
    """Release the factors of hd's resolvents r_mu, mu > 0, by dropping the
    child of hd.op that holds them (hd.resolvent_op)."""
    vars(hd).pop("resolvent_op", None)


def _check_op(hd, op):
    if op is not hd.op:
        raise ValueError("op is not the operator hd was homogenized on")


def phi(hd, op, mu):
    """Phi(mu) = ||ystar_hom - (mu S_2T + Psi)^{-1}(mu S_2T ystar_hom + S_T psi)||_M,
    taken as ||r_mu(A) g||_M with g = hd.g; cached in hd._phi_values.  At mu
    > 0 the factors of r_mu go to hd.resolvent_op (_resolvent)."""
    _check_op(hd, op)
    if not mu >= 0:
        raise ValueError("mu must be >= 0")
    mu = float(mu)
    val = hd._phi_values.get(mu)
    if val is None:
        r = apply_rational(*_resolvent(hd, mu), hd.g)
        val = hd._phi_values[mu] = norm_m(op, r)
    return val


def _root(f, target, tol, mu, slope=None, xtol=1e-10):
    """mu with |f(mu) - target| <= tol for a positive, decreasing f, from mu.

    Modified regula falsi (Illinois, Dowell & Jarratt, BIT 11, 1971, with the
    Anderson-Bjorck factor) in x = log mu on y = log(f / target): until a
    sign change brackets the root, the first step is Newton's on y with the
    given slope d log f / d log mu (a factor 10 without one), later ones
    follow the secant, by a factor between 10 and 10^3.  Returns the last mu
    once it meets tol and either the correction y / slope (the given slope
    at the first value, the secant over the last step after it) or the
    bracket is within xtol in x (relative in mu).  Raises when the next
    step would leave [1/MU_BRACKET_CAP, MU_BRACKET_CAP], after _ROOT_EVALS
    values, and when the next step would not move mu (the bracket has
    collapsed onto floats where f still misses tol).
    """
    x, prev, xa, ya = math.log(mu), None, None, 0.0
    for _ in range(_ROOT_EVALS):
        v = f(mu)
        if not 0.0 < v < math.inf:      # NaN too
            raise RuntimeError(f"root find needs positive finite values: f({mu!r}) = {v!r}")
        y = math.log(v / target)
        if prev is not None:
            slope = (y - prev[1]) / (x - prev[0])
            if y * prev[1] < 0:
                xa, ya = prev
            elif xa is not None:
                m = 1.0 - y / prev[1]
                ya *= m if m > 0 else 0.5
        if abs(v - target) <= tol and (
                (slope is not None and abs(y) <= xtol * abs(slope))
                or (xa is not None and abs(x - xa) <= xtol)):
            return mu
        if xa is not None:
            x_new = x - y * (x - xa) / (y - ya)
        elif prev is None and slope is not None:
            x_new = x - y / slope
        else:
            step = _LN10 if slope is None or slope >= 0 else \
                min(max(abs(y / slope), _LN10), 3 * _LN10)
            x_new = x + math.copysign(step, y)
        if x_new == x:
            raise RuntimeError(f"root find stalled at mu = {mu!r}: |f(mu) - target|"
                               f" = {abs(v - target):.3e} exceeds tol = {tol:.3e}")
        if abs(x_new) > math.log(MU_BRACKET_CAP):   # before exp can overflow
            raise _no_root(target)
        prev = (x, y)
        x, mu = x_new, math.exp(x_new)
    raise RuntimeError(f"root find did not converge in {_ROOT_EVALS} evaluations")


def _no_root(target):
    return RuntimeError(f"no root of f(mu) = {target:.6g} for mu in [1/cap, cap],"
                        f" cap = {MU_BRACKET_CAP:g}: problem data is inconsistent")


def _rational_arnoldi(op, g, solves):
    """Q, whose columns are orthonormal in the coordinates sqrt(M) v where A
    is symmetric: g / ||g|| (g in those coordinates), then one shifted solve
    per pair (operator, pole) of solves, through that operator (op or a
    child of it), each continuing from the last basis vector, with two
    Gram-Schmidt passes that drop numerically dependent directions.

    A pole may come again: its solve then continues from a later vector and
    adds new directions on the factor the first one made.  Where the budget
    of 1 + 2 len(solves) directions covers all n dimensions, Q is the
    identity, whose Ritz data are exact, and no solve runs.  Q is kept
    column-major, so each Gram-Schmidt product reads contiguous columns.
    """
    if 1 + 2 * len(solves) >= op.n:
        return np.eye(op.n)
    sqrt_m = np.sqrt(op.M)
    k = 1
    Q = np.empty((op.n, 1 + 2 * len(solves)), order="F")
    Q[:, 0] = g / np.linalg.norm(g)

    def extend(q):
        nonlocal k
        size = np.linalg.norm(q)
        for _ in range(2):
            q = q - Q[:, :k] @ (Q[:, :k].T @ q)
        if k < Q.shape[1] and np.linalg.norm(q) > 1e-8 * size:
            Q[:, k] = q / np.linalg.norm(q)
            k += 1

    for owner, p in solves:
        x = solve_shifted(owner, p, Q[:, k - 1] / sqrt_m).values
        for part in (x.real, x.imag) if p.imag else (x.real,):
            extend(sqrt_m * part)
    return Q[:, :k]


def _ritz(hd, Q, g):
    """(theta, c^2, Psi(theta)) of A on the space of Q, with c the
    coordinates of g, which Q spans, in the Ritz vectors (both in sqrt(M)
    coordinates)."""
    V = Q / np.sqrt(hd.op.M)[:, None]     # M-orthonormal
    theta, W = np.linalg.eigh(-(V.T @ (hd.op.K @ V)))
    return theta, (W.T @ (Q.T @ g)) ** 2, np.asarray(hd.big_psi_symbol(theta))


def _phi_surrogate(hd, op):
    """Phi_s, the Ritz surrogate of Phi, as mu -> (Phi_s(mu), d log Phi_s / d log mu).

    The residual of phi is r = r_mu(A) g with g = Psi ystar_hom - S_T psi,
    so Phi^2 is a quadratic form in g.  Its Ritz value on a
    rational Krylov space of g is a rational Gauss quadrature, accurate to
    about the square of the vector error (Golub & Meurant, Matrices, Moments
    and Quadrature, 2010; Güttel, GAMM-Mitt. 36, 2013):

        Phi_s(mu)^2 = sum_i c_i^2 / (mu e^{2T theta_i} + Psi(theta_i))^2

    over the Ritz pairs (theta_i, w_i) of A on the space, c_i = <w_i, g>_M.
    Every term decreases in mu, so Phi_s is monotone.  The space,
    hd.surrogate_base, has two passes over the poles of the S_2T fit and
    the problem fit (which serves S_T, Psi and r_0), which solve_problem
    factors anyway.  On the published problems it is within 1e-12 Phi(0) of
    the dense oracle's Phi at mu = 0 and over [1e-7, 1e12] (measured 9.9e-13
    in 1D, 6.7e-13 in 2D), so the root find, the polish's slope and the Phi
    curve all read it, and phi only certifies.  Phi_s depends on the problem
    data only, never on earlier calls.
    """
    _check_op(hd, op)
    theta, c2, psi_theta = hd.surrogate_base
    e2 = np.exp(2 * hd.spec.T * theta)

    def value_and_slope(mu):
        d = mu * e2 + psi_theta
        t = c2 / d ** 2
        v2 = float(np.sum(t))
        return math.sqrt(v2), -mu * float(np.sum(t * e2 / d)) / v2
    return value_and_slope


def solve_mu(hd, op, eps):
    """Root of Phi(mu) = eps; zero when eps >= Phi(0).

    The root is found on the Ritz surrogate Phi_s (see _phi_surrogate), whose
    values cost microseconds, and certified by one exact Phi value there: it
    is returned once |Phi(mu) - eps| <= 1e-8 Phi(0), the tolerance the root
    find on Phi_s stops on.  On the two-pass space that one value passes on
    every published solve.  Where Phi_s has no root, one exact value
    Phi(MU_BRACKET_CAP) above eps + tolerance shows that the decreasing Phi
    has none either: _root's "no root" error.  Else, and where the
    certificate misses, the root find runs on the exact Phi from mu = 1.
    So only exact values decide whether a root exists, and the result
    depends on the problem data only, never on earlier calls.
    """
    _check_op(hd, op)
    if not eps > 0:
        raise ValueError("eps must be positive")
    phi0 = phi(hd, op, 0.0)
    if eps >= phi0:
        return 0.0
    tol = 1e-8 * phi0
    surrogate = _phi_surrogate(hd, op)
    try:
        mu = _root(lambda m: surrogate(m)[0], eps, tol, 1.0)
    except RuntimeError:
        if phi(hd, op, MU_BRACKET_CAP) - eps > tol:
            raise _no_root(eps) from None
    else:
        if abs(phi(hd, op, mu) - eps) <= tol:
            return mu
    return _root(lambda m: phi(hd, op, m), eps, tol, 1.0)


def _stationarity_residual(hd, mu, u, products=None):
    """(mu S_T ystar_hom + psi) - (Psi u + mu S_2T u) through the realized
    operator fits, the residual of the stationarity system at u, and the
    products (Psi u, S_2T u), which do not depend on mu: applied unless
    given."""
    if products is None:
        products = (apply_rational(hd.problem_op, hd.problem_fit[-2], u).values,
                    semigroup_apply(hd.op, 2 * hd.spec.T, u).values)
    psi_u, s2t_u = products
    return mu * hd.st_ystar_hom.values + hd.psi.values - (psi_u + mu * s2t_u), products


def _refine(hd, mu, r, u=None, products=None):
    """The control (u, (Psi u, S_2T u), (stop, kkt)) at mu: iterative
    refinement on the stationarity system at mu, with a resolvent r (the
    pair (operator, fit) of _resolvent) as its approximate inverse, from u,
    or from r(A) rhs, rhs = mu S_T ystar_hom + psi, when no u is given.

    The system is the realized one (the same fitted Psi and semigroup
    actions the KKT residual measures): each step adds r(A) res, and every
    residual is the true one of its iterate.  The first residual reuses the
    products (Psi u, S_2T u) when they are given.  With r = r_root, the
    resolvent at a multiplier root, a step contracts by ||I - r_root(A)(mu
    S_2T + Psi)|| = max |(root - mu) e^{2T lam} / (root e^{2T lam} +
    Psi(lam))| <= |1 - mu / root|.  It stops "converged" once ||res||_M <=
    1e-10 min(max(1, ||psi||_M), ||rhs||_M): below 1 the floor alone would
    leave the resolvent fit's error in u, about 1e-10 relative and different
    at every mu.  It stops "stalled" when a step fails to cut the residual
    by _CUT, keeping the better of the last two iterates.  It returns that
    iterate, its products, the stop reason and its residual, normalized as
    kkt_residual.
    """
    op = hd.op
    rhs = mu * hd.st_ystar_hom.values + hd.psi.values
    if u is None:
        u = apply_rational(*r, rhs)
    scale = max(1.0, norm_m(op, hd.psi))
    target = 1e-10 * min(scale, norm_m(op, rhs))
    res, products = _stationarity_residual(hd, mu, u, products)
    rn = norm_m(op, res)
    while not rn <= target:
        u_new = op.function(u.values + apply_rational(*r, res).values)
        res_new, products_new = _stationarity_residual(hd, mu, u_new)
        rn_new = norm_m(op, res_new)
        cut = rn_new <= _CUT * rn     # False on NaN too
        if rn_new < rn:
            u, res, rn, products = u_new, res_new, rn_new, products_new
        if not cut:
            break
    return u, products, ("converged" if rn <= target else "stalled", rn / scale)


def optimal_control(hd, op, mu):
    """u_opt = (mu S_2T + Psi)^{-1} (mu S_T ystar_hom + psi), for every mu >= 0.

    The resolvent fit r_mu gives the first iterate and the approximate
    inverse of the refinement (_refine).  Large multipliers amplify any fit
    discrepancy by mu, and the refinement removes it at the cost of a few
    reused-factorization applies.  At a mu where phi has run, zero included,
    the control costs no fit and no factorization once an earlier control or
    the surrogate's Arnoldi has factored S_2T, unless a solve_problem has
    dropped r_mu's factors since (hd.resolvent_op): then, at that solve's
    mu_eps too, it factors r_mu again.
    """
    _check_op(hd, op)
    if not mu >= 0:
        raise ValueError("mu must be >= 0")
    mu = float(mu)
    return _refine(hd, mu, _resolvent(hd, mu))[0]


def trajectory(spec, op, u, times):
    """State snapshots y(t) = S_t u + p(t), p(t) = int_0^t S_tau f(t - tau) dtau.

    y(t) is one operator function of time t: e^{t lam} and p(t)'s segment
    integrals (_source_terms) are one shared fit, applied in one pass
    (_state).  Without a source, or before it starts, e^{t lam} is a lone
    fit, the frozen table's, and y(t) is semigroup_apply's bit for bit; y(0)
    is u, in a new array (e^{0 lam} = 1 fits as 1, with no pole).
    """
    out = []
    for t in times:
        if not 0 <= t <= spec.T + 1e-12:
            raise ValueError(f"snapshot time {t} outside [0, T]")
        out.append(op.function(_state(op, [(sym.expm(t), u),
                                           *_source_terms(spec.f_segments, t)], t)))
    return out


def cost_j(hd, op, u):
    """J(u) = 1/2 <u, Psi u> - <u, psi> + J(0).

    Psi is applied through the problem fit, which g, the control's
    refinement and the KKT residual share, so J costs no fit and no
    factorization of its own; solve_problem reads Psi u from the control
    instead of applying it again.
    """
    _check_op(hd, op)
    return _cost(hd, u, apply_rational(hd.problem_op, hd.problem_fit[-2], u).values)


def _cost(hd, u, psi_u):
    op = hd.op
    return 0.5 * inner_m(op, u, psi_u) - inner_m(op, u, hd.psi) + hd.cost_constant


def kkt_residual(hd, op, u, mu):
    """|| Psi u - psi + mu (S_2T u - S_T ystar_hom) ||_M / max(1, ||psi||_M)."""
    _check_op(hd, op)
    return norm_m(op, _stationarity_residual(hd, mu, u)[0]) / max(1.0, norm_m(op, hd.psi))


def _data(spec):
    """Everything of spec but eps, comparable by ==."""
    return (spec.T, spec.alpha, spec.beta_segments,
            [(a, b, f.values.tobytes()) for a, b, f in spec.f_segments],
            [v.values.tobytes() for v in (spec.ystar, *spec.w_segments)])


def solve_problem(spec, op, hd=None):
    """End-to-end solve; returns the solution bundle with diagnostics.

    The multiplier from the Phi root find is polished, when needed, by the
    secant root find on the realized final miss ||y(T) - ystar||_M so the
    constraint holds to 1e-7 * Phi(0) even where mu amplifies the route
    difference.  The final state is y(T) = S_T u + p(T) = S_T u + (ystar -
    ystar_hom), with S_T the problem fit's component, so the miss is
    ||S_T u - ystar_hom||_M: one apply on factors the problem holds, and no
    source integral at T.  The polish starts from the Phi-route mu with the
    slope of the Ritz surrogate there.  Every control of it refines on the
    certified root's resolvent r_root, which solve_mu's certificate fitted
    and factored (_refine), the first from r_root(A) rhs and every later one
    from the previous control and its products: a solve makes no fit after
    its certificate.  The solution's kkt, pcg_stop and cost read the stop
    report and Psi u that the returned control carries.  A polish whose root
    find fails (a step leaves the window |mu - root| <= _CUT root, in which
    r_root contracts the refinement by _CUT, or MU_BRACKET_CAP, or the find
    stalls or runs out of steps) raises a RuntimeError naming the certified
    mu, the realized miss there and the window, with the step's or _root's
    error as its cause: Phi has that root, so _root's own message, which
    calls the problem data inconsistent, would mislead.

    A spec whose data other than eps differ from hd.spec's raises
    ValueError: the solve would mix the two problems.

    The solve drops hd's resolvent factors when it returns or raises
    (hd.resolvent_op): the factors of its root and of every multiplier
    phi took live for the one solve, and a later optimal_control(hd, op,
    mu_eps) factors r_mu again.  The problem fit's factors stay on
    hd.problem_op and S_2T's on op.
    """
    if hd is None:
        hd = homogenize(spec, op)
    elif _data(spec) != _data(hd.spec):
        raise ValueError("spec differs from the problem hd was homogenized from"
                         " in more than eps")
    try:
        return _solve(spec, op, hd)
    finally:
        _drop_resolvents(hd)


def _solve(spec, op, hd):
    """solve_problem's root find, polish and solution bundle."""
    phi_count = len(hd._phi_values)
    root = solve_mu(hd, op, spec.eps)
    phi0 = phi(hd, op, 0.0)
    st_fit, r_root = hd.problem_fit[-3], _resolvent(hd, root)
    first = last = None     # the polish's (m, miss, S_T u, control) at root and last

    def miss_at(m):
        nonlocal first, last
        if last and not abs(m - root) <= _CUT * root:
            raise RuntimeError(f"polish step to mu = {m!r} leaves the window")
        control = _refine(hd, m, r_root, *(last[3][:2] if last else ()))
        st_u = apply_rational(hd.problem_op, st_fit, control[0]).values
        last = (m, norm_m(op, st_u - hd.ystar_hom.values), st_u, control)
        first = first or last
        return last[1]

    if root > 0.0:
        try:
            _root(miss_at, spec.eps, 1e-7 * phi0, root,
                  slope=_phi_surrogate(hd, op)(root)[1], xtol=math.inf)
        except RuntimeError as exc:
            raise RuntimeError(
                f"realized-miss polish failed from the certified mu = {root!r}: the"
                f" realized miss there is {first[1] / spec.eps:.3g} eps, and the root"
                f" find on the miss found no root in its window |mu - root| <="
                f" {_CUT:g} root") from exc
    else:
        miss_at(root)
    # _root returns the mu of its last value; the refinement reports the
    # stationarity residual of u: the KKT one
    mu, miss, st_u, (u, (psi_u, _), (pcg_stop, kkt)) = last
    return ControlSolution(
        mu_eps=mu,
        u_opt=u,
        y_opt=op.function(st_u + (spec.ystar.values - hd.ystar_hom.values)),
        cost=_cost(hd, u, psi_u),
        kkt=kkt,
        final_miss=miss,
        phi0=phi0,
        pcg_stop=pcg_stop,
        phi_evals=len(hd._phi_values) - phi_count,
    )
