import numpy as np
import pytest

from parabolic_control import cli
from parabolic_control import control as ctl
from parabolic_control import operators as ops
from parabolic_control import oracle as orc
from parabolic_control import rational as rat
from parabolic_control import sensitivity as sens
from parabolic_control import symbols as sym
from parabolic_control.config import load_config

from conftest import make_spec_51, T_1D, ALPHA


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_problem_spec_validation(op20):
    w = op20.function(np.ones(op20.n))
    with pytest.raises(ValueError):
        ctl.ProblemSpec(T=0.01, alpha=0.0, beta_segments=((0, 0.01, 1.0),),
                        w_segments=(w,), ystar=w, eps=0.1)
    with pytest.raises(ValueError):
        ctl.ProblemSpec(T=0.01, alpha=1e-4, beta_segments=((0, 0.005, -1.0), (0.005, 0.01, 1.0)),
                        w_segments=(w, w), ystar=w, eps=0.1)
    with pytest.raises(ValueError):
        ctl.ProblemSpec(T=0.01, alpha=1e-4, beta_segments=((0, 0.004, 1.0), (0.005, 0.01, 1.0)),
                        w_segments=(w, w), ystar=w, eps=0.1)


# ---------------------------------------------------------------------------
# homogenization
# ---------------------------------------------------------------------------

def test_homogeneous_source_is_identity(op62, hd62):
    spec = make_spec_51(op62, 0.5)
    assert np.array_equal(hd62.ystar_hom.values, spec.ystar.values)
    for wh, w in zip(hd62.w_hom, spec.w_segments):
        assert np.array_equal(wh.values, w.values)


def test_constant_source_matches_resolvent_formula(op64):
    # int_0^T S_tau f dtau = A^{-1}(S_T - I) f, checked on dense eigenpairs
    ds = orc.decompose(op64)
    lam = ds.eigenvalues
    rng = np.random.default_rng(21)
    f = op64.function(rng.standard_normal(op64.n))
    got = ctl.source_integral(op64, ((0.0, T_1D, f),), T_1D, 1e-12).values
    want = ds.from_eig((np.expm1(T_1D * lam) / lam) * ds.to_eig(f)).values
    assert ops.norm_m(op64, got - want) <= 1e-8 * ops.norm_m(op64, want)


def test_zero_trajectory_gives_zero_psi(op20):
    z = op20.function(np.zeros(op20.n))
    spec = ctl.ProblemSpec(
        T=T_1D, alpha=ALPHA,
        beta_segments=((0.0, T_1D / 3, 0.0), (T_1D / 3, 2 * T_1D / 3, 1.0),
                       (2 * T_1D / 3, T_1D, 0.0)),
        w_segments=(z, z, z), ystar=op20.function(np.ones(op20.n)), eps=0.5)
    hd = ctl.homogenize(spec, op20)
    assert np.all(hd.psi.values == 0.0)


def test_psi_symbol_dominates_alpha(hd62):
    lam = -np.logspace(-8, 7, 300)
    vals = np.asarray(hd62.big_psi_symbol(np.concatenate([lam, [0.0]])))
    assert np.all(vals >= ALPHA)


def test_dimension_mismatch_rejected(op20, op62):
    spec = make_spec_51(op62, 0.5)
    with pytest.raises(ops.DimensionError):
        ctl.homogenize(spec, op20)


# ---------------------------------------------------------------------------
# unconstrained minimizer
# ---------------------------------------------------------------------------

def test_u_min_zero_psi(op20):
    z = op20.function(np.zeros(op20.n))
    spec = ctl.ProblemSpec(
        T=T_1D, alpha=ALPHA,
        beta_segments=((0.0, T_1D, 1.0),), w_segments=(z,),
        ystar=op20.function(np.ones(op20.n)), eps=0.5)
    hd = ctl.homogenize(spec, op20)
    assert np.all(ctl.u_min(hd, op20).values == 0.0)


def test_u_min_reduces_to_psi_over_alpha(op20):
    # with beta = 0 the gradient data is Psi = alpha*I: u_min = psi/alpha
    rng = np.random.default_rng(22)
    psi_vec = rng.standard_normal(op20.n)
    zero = op20.function(np.zeros(op20.n))
    spec = ctl.ProblemSpec(T=T_1D, alpha=ALPHA, beta_segments=((0.0, T_1D, 0.0),),
                           w_segments=(zero,), ystar=zero, eps=1.0)
    hd = ctl.HomogenizedData(
        spec=spec, op=op20, ystar_hom=zero,
        w_hom=(), psi=op20.function(psi_vec), big_psi_symbol=sym.const(ALPHA))
    got = ctl.u_min(hd, op20).values
    assert np.allclose(got, psi_vec / ALPHA, rtol=1e-10)


def test_u_min_matches_oracle(op64, hd64):
    ds = orc.decompose(op64)
    lam = ds.eigenvalues
    big = np.asarray(hd64.big_psi_symbol(lam))
    want = ds.from_eig(ds.to_eig(hd64.psi) / big).values
    got = ctl.u_min(hd64, op64).values
    assert ops.norm_m(op64, got - want) <= 1e-8 * ops.norm_m(op64, want)


# ---------------------------------------------------------------------------
# Phi and the root find
# ---------------------------------------------------------------------------

def test_phi0_matches_paper_value(phi0_62):
    assert abs(phi0_62 - 1.0374) / 1.0374 <= 0.02


def _phi0_example1d(n_el):
    cfg = load_config("example1d", n_el=n_el)
    op = cli.build_operator_1d(cfg)
    hd = ctl.homogenize(cli.build_problem_1d(cfg, op, 1.0), op)
    return ctl.phi(hd, op, 0.0)


@pytest.mark.parametrize("n_el", [500, 2000])
def test_fine_1d_mesh_homogenizes(n_el):
    # fine meshes meet a fitted pole with a residue near 1e-17, so the shifted
    # solve's right-hand side is ~1e-29 and its roundoff residual exceeds
    # 1e-12 * |rhs|; the normwise backward error accepts it
    coarse, fine = _phi0_example1d(300), _phi0_example1d(n_el)
    assert np.isfinite(fine) and fine > 0
    assert abs(fine - coarse) <= 1e-2 * coarse


def _phi0_example2d(h):
    cfg = load_config("example2d", h=h)
    op = cli.build_operator_2d(cfg)
    hd = ctl.homogenize(cli.build_problem_2d(cfg, op, 1.0), op)
    return ctl.phi(hd, op, 0.0)


def test_fine_2d_mesh_homogenizes():
    # h = 1/60 (n = 10,561): about 90 MB of shifted factors for Phi(0)
    coarse, fine = _phi0_example2d(1 / 30), _phi0_example2d(1 / 60)
    assert np.isfinite(fine) and fine > 0
    assert abs(fine - coarse) <= 1e-2 * coarse


def test_phi_zero_data(op20):
    z = op20.function(np.zeros(op20.n))
    spec = ctl.ProblemSpec(
        T=T_1D, alpha=ALPHA,
        beta_segments=((0.0, T_1D, 1.0),), w_segments=(z,), ystar=z, eps=0.5)
    hd = ctl.homogenize(spec, op20)
    for mu in (0.0, 1.0, 1e6):
        assert ctl.phi(hd, op20, mu) == 0.0


def test_phi_strictly_decreasing(hd62, op62):
    mus = np.concatenate([[0.0], np.logspace(-7, 12, 20)])
    vals = [ctl.phi(hd62, op62, m) for m in mus]
    for a, b in zip(vals, vals[1:]):
        assert b < a


@pytest.mark.parametrize("mu", [1e-3, 1e-1, 10.0])
def test_phi_slope_matches_oracle(op64, hd64, mu):
    # d log Phi / d log mu = -sum r_k^2 f1(lam_k) / sum r_k^2 in the
    # eigenbasis, with f1 = mu e^{2T lam} / (mu e^{2T lam} + Psi)
    ds = orc.decompose(op64)
    lam = ds.eigenvalues
    e_t, e_2t = np.exp(T_1D * lam), np.exp(2 * T_1D * lam)
    denom = mu * e_2t + np.asarray(hd64.big_psi_symbol(lam))
    y = ds.to_eig(hd64.ystar_hom)
    r = y - (mu * e_2t * y + e_t * ds.to_eig(hd64.psi)) / denom
    want = -np.sum(r ** 2 * mu * e_2t / denom) / np.sum(r ** 2)
    ctl.phi(hd64, op64, mu)
    ctl.phi(hd64, op64, 0.0)
    assert ctl._phi_slope(hd64, op64, mu) == pytest.approx(want, rel=1e-8)
    assert ctl._phi_slope(hd64, op64, 0.0) is None


def test_phi_rejects_negative_mu(hd62, op62):
    with pytest.raises(ValueError):
        ctl.phi(hd62, op62, -1.0)


def test_solve_mu_boundary_case(hd62, op62, phi0_62):
    assert ctl.solve_mu(hd62, op62, phi0_62) == 0.0
    assert ctl.solve_mu(hd62, op62, 2.0 * phi0_62) == 0.0


def test_solve_mu_matches_bisection_oracle(hd62, op62, phi0_62):
    eps = 0.5 * phi0_62
    mu = ctl.solve_mu(hd62, op62, eps)
    assert abs(ctl.phi(hd62, op62, mu) - eps) <= 1e-8 * phi0_62
    # fine bisection on the same Phi
    lo, hi = 0.0, 1.0
    while ctl.phi(hd62, op62, hi) >= eps:
        hi *= 10
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if ctl.phi(hd62, op62, mid) >= eps:
            lo = mid
        else:
            hi = mid
    assert mu == pytest.approx(0.5 * (lo + hi), rel=1e-9)


@pytest.mark.parametrize("root", [3.7e4, 2.5e-3])
def test_root_find_resolves_known_root(root):
    def f(mu):
        return 2.0 / (1.0 + (mu / root) ** 0.7)
    mu = ctl._root(f, 1.0, 2e-8, 1.0)
    assert mu == pytest.approx(root, rel=1e-10)


def _secular_twin(root):
    """Phi's secular form ||(mu + sigma)^{-1} c|| on the spectrum lam_k = -k^2
    of the 1D problem, sigma_k = Psi e^{-2T lam_k}, scaled so that f(root) = 1:
    value and d log f / d log mu."""
    k = np.arange(1, 61)
    sigma = 3.4e-3 * np.exp(2 * T_1D * k ** 2)
    c = sigma / k

    def value_and_slope(mu):
        t = c / (mu + sigma)
        v = np.sqrt(np.sum(t * t))
        return v, -mu * np.sum(t * t / (mu + sigma)) / v ** 2

    scale = value_and_slope(root)[0]

    def twin(mu):
        v, s = value_and_slope(mu)
        return v / scale, s
    return twin


@pytest.mark.parametrize("root", [3.7e4, 2.5e-3])
def test_newton_root_find_resolves_known_root(root):
    # (On the power law of the secant twin above, 1/f grows like mu^0.7 past
    # the root and Newton on 1/f in log mu is no faster.)
    twin = _secular_twin(root)
    newton, secant = [], []

    def newton_f(mu):
        newton.append(mu)
        return twin(mu)

    def secant_f(mu):
        secant.append(mu)
        return twin(mu)[0]

    mu = ctl._root(newton_f, 1.0, 2e-8, 1.0)
    assert mu == pytest.approx(root, rel=1e-10)
    # quadratic contraction predicts the last correction: the returned
    # Newton point is never evaluated
    assert mu not in newton
    assert ctl._root(secant_f, 1.0, 2e-8, 1.0) == pytest.approx(root, rel=1e-10)
    assert len(newton) < len(secant)


@pytest.mark.parametrize("root", [3.7e4, 2.5e-3])
def test_newton_root_find_guards_against_inexact_slope(root):
    # a slope reported twice too steep halves every Newton step, so the
    # contraction is linear: no unevaluated return, and the correction is
    # measured by the secant
    twin = _secular_twin(root)
    calls = []

    def wrong_slope(mu):
        calls.append(mu)
        v, s = twin(mu)
        return v, 2.0 * s

    mu = ctl._root(wrong_slope, 1.0, 2e-8, 1.0)
    assert mu == pytest.approx(root, rel=1e-10)
    assert mu == calls[-1]


@pytest.mark.parametrize("root", [3.7e4, 2.5e-3])
def test_newton_root_find_trusts_one_short_step(root):
    # with no last step, the bound C <= 3/2 on the contraction of Phi's form
    # predicts the next correction 1.5 step^2: from 3e-6 off the root the
    # first Newton point is returned unevaluated; from 3e-5 off it is not
    twin = _secular_twin(root)
    for offset, evals in ((3e-6, 1), (3e-5, 2)):
        calls = []

        def f(mu):
            calls.append(mu)
            return twin(mu)

        mu = ctl._root(f, 1.0, 2e-8, root * np.exp(offset))
        assert mu == pytest.approx(root, rel=1e-10)
        assert len(calls) == evals and mu != calls[0]


@pytest.mark.parametrize("target", [0.5, 2.5])
def test_root_find_raises_without_root_within_cap(target):
    # 1 + 1/(1 + mu) decreases from 2 to 1: no root of f = 0.5 (mu grows
    # past the cap) nor of f = 2.5 (mu shrinks past 1/cap)
    with pytest.raises(RuntimeError, match="no root"):
        ctl._root(lambda mu: 1.0 + 1.0 / (1.0 + mu), target, 1e-8, 1.0)


def test_solve_mu_phi_evaluation_counts(op62):
    # Phi evaluations are counted by the growth of hd._phi_values.  Measured
    # here: 7 from scratch and 3 hinted with the Newton steps (8 and 4 when
    # the returned root was evaluated too); the secant root find took 10 and
    # 6, and brentq with its x10 bracket expansion and guard bisection 14
    # and 12.
    hd = ctl.homogenize(make_spec_51(op62, 1.0), op62)
    eps = 0.5 * ctl.phi(hd, op62, 0.0)
    n = len(hd._phi_values)
    mu0 = ctl.solve_mu(hd, op62, eps)
    assert len(hd._phi_values) - n <= 11
    spec_d, op_d = sens.perturb(make_spec_51(op62, eps), op62,
                                sens.PerturbationSpec(1e-2, "beta", 0))
    hd_d = ctl.homogenize(spec_d, op_d)
    ctl.phi(hd_d, op_d, 0.0)
    n = len(hd_d._phi_values)
    mu_d = ctl.solve_mu(hd_d, op_d, eps, hint=mu0)
    assert len(hd_d._phi_values) - n <= 7
    assert abs(ctl.phi(hd_d, op_d, mu_d) - eps) <= 1e-8 * ctl.phi(hd_d, op_d, 0.0)


def test_newton_root_find_phi_evaluations(op62):
    # Newton on 1/Phi with the exact slope: 7 Phi values from mu = 1 and 3
    # from the unperturbed root as hint, the returned root unevaluated (8
    # and 4 with it evaluated; the secant steps took 10 and 6)
    hd = ctl.homogenize(make_spec_51(op62, 1.0), op62)
    eps = 0.5 * ctl.phi(hd, op62, 0.0)
    n = len(hd._phi_values)
    mu0 = ctl.solve_mu(hd, op62, eps)
    assert len(hd._phi_values) - n <= 7
    spec_d, op_d = sens.perturb(make_spec_51(op62, eps), op62,
                                sens.PerturbationSpec(1e-2, "beta", 0))
    hd_d = ctl.homogenize(spec_d, op_d)
    phi0_d = ctl.phi(hd_d, op_d, 0.0)
    n = len(hd_d._phi_values)
    mu_d = ctl.solve_mu(hd_d, op_d, eps, hint=mu0)
    assert len(hd_d._phi_values) - n <= 3
    assert abs(ctl.phi(hd_d, op_d, mu_d) - eps) <= 1e-8 * phi0_d


@pytest.mark.parametrize("experiment,variant", [
    ("example1d", "isotropic"), ("example1d", "discontinuous"),
    ("example2d", None)])
def test_solve_mu_meets_the_value_tolerance(experiment, variant):
    # the returned root may be an unevaluated Newton point: evaluated
    # afterwards, Phi meets the root find's value tolerance at every
    # published eps
    if experiment == "example1d":
        cfg = load_config(experiment, variant=variant)
        op = cli.build_operator_1d(cfg)
        hd = ctl.homogenize(cli.build_problem_1d(cfg, op, 1.0), op)
    else:
        cfg = load_config(experiment)
        op = cli.build_operator_2d(cfg)
        hd = ctl.homogenize(cli.build_problem_2d(cfg, op, 1.0), op)
    phi0 = ctl.phi(hd, op, 0.0)
    for frac in cfg.eps_fractions:
        mu = ctl.solve_mu(hd, op, frac * phi0)
        assert abs(ctl.phi(hd, op, mu) - frac * phi0) <= 1e-8 * phi0


def test_solution_counts_its_phi_evaluations(op62):
    hd = ctl.homogenize(make_spec_51(op62, 1.0), op62)
    phi0 = ctl.phi(hd, op62, 0.0)
    first = ctl.solve_problem(make_spec_51(op62, 0.5 * phi0), op62, hd=hd)
    assert first.phi_evals == len(hd._phi_values) - 1 > 0
    again = ctl.solve_problem(make_spec_51(op62, 0.5 * phi0), op62, hd=hd)
    assert again.phi_evals == 0 and again.mu_eps == first.mu_eps


def test_mu_monotone_in_eps(hd62, op62, phi0_62):
    mus = [ctl.solve_mu(hd62, op62, f * phi0_62) for f in (0.2, 0.5, 0.9)]
    assert mus[0] > mus[1] > mus[2] >= 0.0


# ---------------------------------------------------------------------------
# optimal control
# ---------------------------------------------------------------------------

def test_optimal_control_reduces_to_umin_at_zero(hd62, op62):
    u0 = ctl.optimal_control(hd62, op62, 0.0)
    um = ctl.u_min(hd62, op62)
    scale = ops.norm_m(op62, um)
    assert ops.norm_m(op62, u0.values - um.values) <= 1e-10 * scale


def test_optimal_control_zero_data(op20):
    z = op20.function(np.zeros(op20.n))
    spec = ctl.ProblemSpec(
        T=T_1D, alpha=ALPHA,
        beta_segments=((0.0, T_1D, 1.0),), w_segments=(z,), ystar=z, eps=0.5)
    hd = ctl.homogenize(spec, op20)
    assert np.all(ctl.optimal_control(hd, op20, 0.0).values == 0.0)
    assert ops.norm_m(op20, ctl.optimal_control(hd, op20, 1.0)) <= 1e-14


def test_optimal_control_matches_oracle_at_mu_one(op64, hd64):
    ds = orc.decompose(op64)
    lam = ds.eigenvalues
    big = np.asarray(hd64.big_psi_symbol(lam))
    mu = 1.0
    denom = mu * np.exp(2 * T_1D * lam) + big
    want = ds.from_eig((mu * np.exp(T_1D * lam) * ds.to_eig(hd64.ystar_hom)
                        + ds.to_eig(hd64.psi)) / denom).values
    got = ctl.optimal_control(hd64, op64, mu).values
    assert ops.norm_m(op64, got - want) <= 1e-8 * ops.norm_m(op64, want)


# ---------------------------------------------------------------------------
# trajectory and cost
# ---------------------------------------------------------------------------

def test_trajectory_endpoints(op62, hd62):
    spec = make_spec_51(op62, 0.5)
    u = ctl.u_min(hd62, op62)
    snaps = ctl.trajectory(spec, op62, u, [0.0, spec.T])
    assert np.array_equal(snaps[0].values, u.values)
    want = rat.semigroup_apply(op62, spec.T, u)
    assert np.array_equal(snaps[1].values, want.values)


def test_final_state_on_ball_boundary(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.2 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    assert abs(sol.final_miss - spec.eps) <= 1e-6 * phi0_62


def test_cost_zero_for_zero_data(op20):
    z = op20.function(np.zeros(op20.n))
    spec = ctl.ProblemSpec(
        T=T_1D, alpha=ALPHA,
        beta_segments=((0.0, T_1D, 1.0),), w_segments=(z,), ystar=z, eps=0.5)
    assert ctl.cost_j(spec, op20, z) == 0.0


def test_cost_agrees_with_bilinear_form(op64, hd64):
    # J(u) = 1/2 <Psi u, u> - <psi, u> + 1/2 sum beta_i |seg_i| ||w_i||^2,
    # the gradient expansion, evaluated exactly on the dense eigenpairs
    ds = orc.decompose(op64)
    lam = ds.eigenvalues
    spec = make_spec_51(op64, 0.5)
    rng = np.random.default_rng(23)
    u = op64.function(rng.standard_normal(op64.n))
    u_hat = ds.to_eig(u)
    big = np.asarray(hd64.big_psi_symbol(lam))
    quad = 0.5 * float(np.sum(big * u_hat**2)) \
        - float(np.sum(ds.to_eig(hd64.psi) * u_hat))
    const = 0.0
    for (a, b, beta), w in zip(spec.beta_segments, spec.w_segments):
        const += 0.5 * beta * (b - a) * ops.norm_m(op64, w) ** 2
    want = quad + const
    got = ctl.cost_j(spec, op64, u)
    assert abs(got - want) <= 1e-6 * abs(want)


def test_optimality_of_cost(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    umin = ctl.u_min(hd62, op62)
    j_min = ctl.cost_j(spec, op62, umin)
    assert j_min <= sol.cost + 1e-12
    # strictly feasible interior point to mix with
    u_inner = ctl.optimal_control(hd62, op62, 4.0 * sol.mu_eps)
    rng = np.random.default_rng(24)
    tested = 0
    for _ in range(30):
        s = rng.uniform(0.05, 1.0)
        d = rng.standard_normal(op62.n)
        d *= 0.01 * s / ops.norm_m(op62, d)
        u_try = op62.function((1 - s) * sol.u_opt.values
                              + s * u_inner.values + d)
        y_try = ctl.trajectory(spec, op62, u_try, [spec.T])[0]
        if ops.norm_m(op62, y_try.values - spec.ystar.values) <= spec.eps:
            assert ctl.cost_j(spec, op62, u_try) >= sol.cost - 1e-10
            tested += 1
        if tested == 10:
            break
    assert tested == 10


# ---------------------------------------------------------------------------
# KKT residual
# ---------------------------------------------------------------------------

def test_kkt_at_solution(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    assert sol.kkt <= 1e-6


def test_kkt_at_umin(op62, hd62):
    umin = ctl.u_min(hd62, op62)
    assert ctl.kkt_residual(hd62, op62, umin, 0.0) <= 1e-8


def test_kkt_increases_away_from_solution(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    umin = ctl.u_min(hd62, op62)
    perturbed = op62.function(umin.values + 0.01)
    at_sol = ctl.kkt_residual(hd62, op62, sol.u_opt, sol.mu_eps)
    at_pert = ctl.kkt_residual(hd62, op62, perturbed, sol.mu_eps)
    assert at_pert > at_sol


# ---------------------------------------------------------------------------
# the Phi-law suite and regime invariants
# ---------------------------------------------------------------------------

def test_phi_limit_large_mu(hd62, op62, phi0_62):
    assert ctl.phi(hd62, op62, 1e12) <= 1e-3 * phi0_62


def test_phi0_equals_unconstrained_miss(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.5)
    umin = ctl.u_min(hd62, op62)
    y_min = ctl.trajectory(spec, op62, umin, [spec.T])[0]
    miss = ops.norm_m(op62, y_min.values - spec.ystar.values)
    assert abs(miss - phi0_62) <= 1e-8 * phi0_62


def test_feasibility_and_complementarity_all_regimes(op62, hd62, phi0_62):
    for frac in (0.5, 1.2):
        spec = make_spec_51(op62, frac * phi0_62)
        sol = ctl.solve_problem(spec, op62, hd=hd62)
        assert sol.final_miss <= spec.eps + 1e-6 * phi0_62
        scale = max(1.0, sol.mu_eps)
        assert sol.mu_eps * abs(sol.final_miss - spec.eps) <= 1e-6 * scale
        if frac > 1:
            assert sol.mu_eps == 0.0


def test_eps_interpolation(op62, hd62, phi0_62):
    umin = ctl.u_min(hd62, op62)
    umin_n = ops.norm_m(op62, umin)
    costs, dists = [], []
    for frac in (0.2, 0.5, 0.9):
        spec = make_spec_51(op62, frac * phi0_62)
        sol = ctl.solve_problem(spec, op62, hd=hd62)
        costs.append(sol.cost)
        dists.append(ops.norm_m(op62, sol.u_opt.values - umin.values) / umin_n)
    assert costs[0] >= costs[1] >= costs[2]
    assert dists[0] >= dists[1] >= dists[2]


def test_solution_invariants(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    assert sol.mu_eps > 0
    assert abs(sol.final_miss - spec.eps) <= 1e-6 * phi0_62
    assert sol.phi0 == pytest.approx(phi0_62)
    mus = [m for m, _ in sol.phi_samples]
    assert mus == sorted(mus)


def test_solution_reports_pcg_convergence(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    assert sol.pcg_stop == "converged"
    assert sol.pcg_residual <= 1e-10
    assert sol.pcg_residual == sol.kkt
    assert sol.kkt == ctl.kkt_residual(hd62, op62, sol.u_opt, sol.mu_eps)


def test_problem_with_other_data_refits_nothing(op62, monkeypatch):
    # every fit depends on T, alpha, beta and mu only: a second problem with
    # the same T, alpha and beta reuses homogenization, Phi(0), Psi and
    # inverse-Psi fits of the first, whatever its data
    spec = make_spec_51(op62, 1.0)
    hd = ctl.homogenize(spec, op62)
    phi0 = ctl.phi(hd, op62, 0.0)
    ctl.kkt_residual(hd, op62, ctl.u_min(hd, op62), 0.0)
    calls = []
    for name in ("fit_rational", "fit_rational_shared"):
        fit = getattr(rat, name)

        def counted(*args, _fit=fit):
            calls.append(args)
            return _fit(*args)
        for module in (rat, ctl):
            if getattr(module, name, None) is fit:
                monkeypatch.setattr(module, name, counted)
    w = ops.project_to_mesh(op62, ops.Indicator1D(0.5, 1.5))
    ystar = ops.project_to_mesh(op62, ops.GaussianSum(((4.0, 2.0, 0.7),)))
    other = ctl.ProblemSpec(T=spec.T, alpha=spec.alpha, beta_segments=spec.beta_segments,
                            w_segments=(w, w, w), ystar=ystar, eps=1.0)
    hd2 = ctl.homogenize(other, op62)
    phi0_2 = ctl.phi(hd2, op62, 0.0)
    u2 = ctl.u_min(hd2, op62)
    assert ctl.kkt_residual(hd2, op62, u2, 0.0) <= 1e-8
    assert calls == []
    assert np.isfinite(phi0_2) and abs(phi0_2 - phi0) > 1e-3 * phi0
