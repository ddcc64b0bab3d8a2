from dataclasses import replace
import re

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

from conftest import make_spec_51, psi_without_source, T_1D, ALPHA


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
    # without a source homogenization shifts nothing: ystar_hom is y* and psi
    # is sum_k beta_k I_k(A) w_k, bit for bit
    spec = make_spec_51(op62, 0.5)
    assert np.array_equal(hd62.ystar_hom.values, spec.ystar.values)
    assert np.array_equal(hd62.psi.values, psi_without_source(spec, op62))


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


def test_operator_other_than_hd_op_rejected(op20):
    # an equal operator that is not hd.op would mix two operators in one
    # solve, since hd's lazy values read hd.op
    hd = ctl.homogenize(make_spec_51(op20, 0.5), op20)
    other = ops.assemble_1d(20)
    u = op20.function(np.ones(op20.n))
    for call in (lambda: ctl.phi(hd, other, 0.0),
                 lambda: ctl.solve_mu(hd, other, 0.5),
                 lambda: ctl.optimal_control(hd, other, 0.0),
                 lambda: ctl.cost_j(hd, other, u),
                 lambda: ctl.kkt_residual(hd, other, u, 0.0),
                 lambda: ctl.solve_problem(hd.spec, other, hd=hd)):
        with pytest.raises(ValueError, match="operator"):
            call()
    assert hd._phi_values == {} and hd.pcg_reports == {}


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
    assert np.all(ctl.optimal_control(hd, op20, 0.0).values == 0.0)


def test_u_min_reduces_to_psi_over_alpha(op20):
    # with beta = 0 the gradient data is Psi = alpha*I: u_min = psi/alpha
    rng = np.random.default_rng(22)
    psi_vec = rng.standard_normal(op20.n)
    zero = op20.function(np.zeros(op20.n))
    spec = ctl.ProblemSpec(T=T_1D, alpha=ALPHA, beta_segments=((0.0, T_1D, 0.0),),
                           w_segments=(zero,), ystar=zero, eps=1.0)
    hd = ctl.HomogenizedData(
        spec=spec, op=op20, ystar_hom=zero,
        psi=op20.function(psi_vec), big_psi_symbol=sym.const(ALPHA))
    got = ctl.optimal_control(hd, op20, 0.0).values
    assert np.allclose(got, psi_vec / ALPHA, rtol=1e-10)


def test_u_min_matches_oracle(op64, hd64):
    ds = orc.decompose(op64)
    lam = ds.eigenvalues
    big = np.asarray(hd64.big_psi_symbol(lam))
    want = ds.from_eig(ds.to_eig(hd64.psi) / big).values
    got = ctl.optimal_control(hd64, op64, 0.0).values
    assert ops.norm_m(op64, got - want) <= 1e-8 * ops.norm_m(op64, want)


# ---------------------------------------------------------------------------
# Phi and the root find
# ---------------------------------------------------------------------------

def test_phi0_matches_paper_value(phi0_62):
    assert abs(phi0_62 - 1.0374) / 1.0374 <= 0.02


def _example1d(n_el):
    cfg = load_config("example1d", n_el=n_el)
    op = cli.build_operator_1d(cfg)
    hd = ctl.homogenize(cli.build_problem_1d(cfg, op, 1.0), op)
    return cfg, op, hd, ctl.phi(hd, op, 0.0)


def _published_1d_solves(n_el):
    """Cached LU factors and exact Phi values per solve of the published
    example1d solves on n_el elements."""
    cfg, op, hd, phi0 = _example1d(n_el)
    evals = [ctl.solve_problem(cli.build_problem_1d(cfg, op, f * phi0), op, hd=hd).phi_evals
             for f in cfg.eps_fractions]
    return len(op._solvers), evals


@pytest.mark.parametrize("n_el", [500, 2000])
def test_fine_1d_mesh_homogenizes(n_el):
    # fine meshes meet a fitted pole with a residue near 1e-17, so the shifted
    # solve's right-hand side is ~1e-29 and its roundoff residual exceeds
    # 1e-12 * |rhs|; the normwise backward error accepts it.  The published
    # solves make as many LUs as on the published mesh, within 10 %, and
    # certify each root with 1 exact Phi value (measured 96 LUs at n_el =
    # 62, 1000 and 4000)
    coarse, fine = _example1d(300)[3], _example1d(n_el)[3]
    assert np.isfinite(fine) and fine > 0
    assert abs(fine - coarse) <= 1e-2 * coarse
    factors, evals = _published_1d_solves(62)
    factors_fine, evals_fine = _published_1d_solves(n_el)
    assert abs(factors_fine - factors) <= 0.1 * factors
    assert evals == evals_fine == [1, 1, 1]


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
    # eigenbasis, with f1 = mu e^{2T lam} / (mu e^{2T lam} + Psi); the slope
    # of the Ritz surrogate that starts the polish meets it (measured
    # <= 4.4e-12 relative here)
    ds = orc.decompose(op64)
    lam = ds.eigenvalues
    e_t, e_2t = np.exp(T_1D * lam), np.exp(2 * T_1D * lam)
    denom = mu * e_2t + np.asarray(hd64.big_psi_symbol(lam))
    y = ds.to_eig(hd64.ystar_hom)
    r = y - (mu * e_2t * y + e_t * ds.to_eig(hd64.psi)) / denom
    want = -np.sum(r ** 2 * mu * e_2t / denom) / np.sum(r ** 2)
    assert ctl._phi_surrogate(hd64, op64)(mu)[1] == pytest.approx(want, rel=1e-8)


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


@pytest.mark.parametrize("target", [0.5, 2.5])
def test_root_find_raises_without_root_within_cap(target):
    # 1 + 1/(1 + mu) decreases from 2 to 1: no root of f = 0.5 (mu grows
    # past the cap) nor of f = 2.5 (mu shrinks past 1/cap)
    with pytest.raises(RuntimeError, match="no root"):
        ctl._root(lambda mu: 1.0 + 1.0 / (1.0 + mu), target, 1e-8, 1.0)


@pytest.mark.parametrize("start", [1.0, 1e4])
def test_root_find_raises_when_its_bracket_collapses(start):
    # f jumps across the target at mu = 100 by more than tol: the bracket
    # shrinks onto adjacent floats and the next step would not move mu
    def f(mu):
        return 2.0 if mu < 100 else 0.5
    with pytest.raises(RuntimeError, match=r"stalled at mu = (\S+):.* = 5\.000e-01 "
                       r"exceeds tol = 1\.000e-03") as info:
        ctl._root(f, 1.0, 1e-3, start)
    mu = re.search(r"mu = (\S+):", str(info.value)).group(1)
    assert float(mu) == pytest.approx(100.0)


def test_newton_root_find_phi_evaluations(op62):
    # Phi evaluations are counted by the growth of hd._phi_values.  The root
    # of the Ritz surrogate is certified by its one exact Phi value, for the
    # problem and for its perturbed copy alike.  Newton on 1/Phi with the
    # exact slope from mu = 1 took 7 and 8 values; the secant root find from
    # the unperturbed root took 10 and 6, and brentq with its x10 bracket
    # expansion and guard bisection 14 and 12.
    hd = ctl.homogenize(make_spec_51(op62, 1.0), op62)
    eps = 0.5 * ctl.phi(hd, op62, 0.0)
    n = len(hd._phi_values)
    ctl.solve_mu(hd, op62, eps)
    assert len(hd._phi_values) - n <= 1
    spec_d, op_d = sens.perturb(make_spec_51(op62, eps), op62,
                                sens.PerturbationSpec(1e-2, "beta", 0))
    hd_d = ctl.homogenize(spec_d, op_d)
    phi0_d = ctl.phi(hd_d, op_d, 0.0)
    n = len(hd_d._phi_values)
    mu_d = ctl.solve_mu(hd_d, op_d, eps)
    assert len(hd_d._phi_values) - n <= 1
    assert abs(ctl.phi(hd_d, op_d, mu_d) - eps) <= 1e-8 * phi0_d


# at most this many exact Phi values certify the root at each eps/Phi(0)
_EXACT_PHI_VALUES = {"example1d": {0.2: 1, 0.5: 1, 0.9: 1},
                     "example2d": {0.1: 2, 0.5: 1, 0.9: 1, 0.03: 2}}


@pytest.mark.parametrize("experiment,variant", [
    ("example1d", "isotropic"), ("example1d", "discontinuous"),
    ("example2d", None)])
def test_solve_mu_meets_the_value_tolerance(experiment, variant):
    # at every published eps, and at 0.03 Phi(0) in 2D (mu ~ 7e12), the
    # surrogate root is certified by the exact Phi values counted here: at
    # 2D eps = 0.1 the first root is 2.4e-5 off and the second, with the
    # poles of the Phi pair at the first, meets the tolerance (3 values at
    # 0.03 with Newton on the exact Phi).  A fresh copy of the problem, with
    # no earlier solves, gives the same root
    evals = _EXACT_PHI_VALUES[experiment]
    if experiment == "example1d":
        cfg = load_config(experiment, variant=variant)
        op = cli.build_operator_1d(cfg)
        build = cli.build_problem_1d
    else:
        cfg = load_config(experiment)
        op = cli.build_operator_2d(cfg)
        build = cli.build_problem_2d
    hd = ctl.homogenize(build(cfg, op, 1.0), op)
    phi0 = ctl.phi(hd, op, 0.0)
    assert tuple(evals)[:len(cfg.eps_fractions)] == cfg.eps_fractions
    mus = {}
    for frac, want in evals.items():
        n = len(hd._phi_values)
        mus[frac] = ctl.solve_mu(hd, op, frac * phi0)
        assert len(hd._phi_values) - n <= want, frac
        assert abs(ctl.phi(hd, op, mus[frac]) - frac * phi0) <= 1e-8 * phi0
    fresh = ctl.homogenize(build(cfg, op, 1.0), op)
    assert ctl.solve_mu(fresh, op, 0.5 * phi0) == mus[0.5]


def test_phi_surrogate_is_monotone(hd62, op62, phi0_62):
    surrogate = ctl._phi_surrogate(hd62, op62)
    vals = [surrogate(m)[0] for m in np.concatenate([[0.0], np.logspace(-8, 16, 97)])]
    assert vals[0] == pytest.approx(phi0_62, rel=1e-8)
    assert all(b <= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("variant", ["isotropic", "discontinuous"])
def test_phi_surrogate_root_matches_oracle(variant):
    # on n = 61 the rational Krylov space of the surrogate (55 directions)
    # holds nearly all of g, and its root meets the exact one at every eps
    cfg = load_config("example1d", variant=variant)
    op = cli.build_operator_1d(cfg)
    hd = ctl.homogenize(cli.build_problem_1d(cfg, op, 1.0), op)
    phi0 = ctl.phi(hd, op, 0.0)
    surrogate = ctl._phi_surrogate(hd, op)
    ds = orc.decompose(op)
    for frac in (0.9, 0.5, 0.2, 0.1, 0.01, 0.001):
        eps = frac * phi0
        want = orc.oracle_solve_control(cli.build_problem_1d(cfg, op, eps), op, ds).mu_eps
        mu = ctl._root(lambda m: surrogate(m)[0], eps, 1e-8 * phi0, 1.0)
        assert mu == pytest.approx(want, rel=1e-8), frac


def _exact_root_from_one(spec, op, eps, tol):
    """What the root find on the exact Phi of a fresh problem returns from mu = 1."""
    fresh = ctl.homogenize(spec, op)
    return ctl._root(lambda m: ctl.phi(fresh, op, m), eps, tol, 1.0)


def test_solve_mu_without_surrogate_root_starts_from_one(op62, monkeypatch):
    # a surrogate that levels off above eps has no root within the cap: the
    # exact root find then starts from mu = 1 and returns what it returns on
    # a fresh problem
    spec = make_spec_51(op62, 1.0)
    hd = ctl.homogenize(spec, op62)
    phi0 = ctl.phi(hd, op62, 0.0)
    eps = 0.5 * phi0

    def rootless(mu):
        level = 1.5 + 1.0 / (1.0 + mu)
        return eps * level, -mu / (1.0 + mu) ** 2 / level

    with pytest.raises(RuntimeError, match="no root"):
        ctl._root(lambda m: rootless(m)[0], eps, 1e-8 * phi0, 1.0)
    want = _exact_root_from_one(spec, op62, eps, 1e-8 * phi0)
    monkeypatch.setattr(ctl, "_phi_surrogate", lambda hd, op, poles=(): rootless)
    mu = ctl.solve_mu(hd, op62, eps)
    assert list(hd._phi_values)[1] == 1.0
    assert mu == want


def test_solve_mu_falls_back_when_the_rounds_run_out(op62, monkeypatch):
    # a surrogate whose root stays at mu = 100, far from Phi's, fails its
    # certificate in every round although each round adds poles; after
    # _POLE_ROUNDS additions the exact root find runs from mu = 1
    spec = make_spec_51(op62, 1.0)
    hd = ctl.homogenize(spec, op62)
    phi0 = ctl.phi(hd, op62, 0.0)
    eps = 0.5 * phi0
    added = []

    def wrong(hd, op, poles=()):
        added.append(len(poles))
        return lambda mu: (2.0 * eps / (1.0 + mu / 100.0), None)

    want = _exact_root_from_one(spec, op62, eps, 1e-8 * phi0)
    monkeypatch.setattr(ctl, "_phi_surrogate", wrong)
    mu = ctl.solve_mu(hd, op62, eps)
    assert len(added) == 1 + ctl._POLE_ROUNDS and added == sorted(set(added))
    assert list(hd._phi_values)[1:3] == [pytest.approx(100.0, rel=1e-9), 1.0]
    assert mu == want


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
    # at mu = 0 the control pair's first member is exactly zero: u is
    # Psi^{-1} psi whatever the final target, and PCG stops at its first check
    u0 = ctl.optimal_control(hd62, op62, 0.0)
    other = replace(hd62, ystar_hom=op62.function(np.ones(op62.n)))
    assert np.array_equal(ctl.optimal_control(other, op62, 0.0).values, u0.values)
    assert hd62.pcg_reports[0.0] == other.pcg_reports[0.0]
    assert hd62.pcg_reports[0.0][0] == "converged"


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
    u = ctl.optimal_control(hd62, op62, 0.0)
    snaps = ctl.trajectory(spec, op62, u, [0.0, spec.T])
    assert np.array_equal(snaps[0].values, u.values)
    want = rat.semigroup_apply(op62, spec.T, u, spec.fit_tol)
    assert np.array_equal(snaps[1].values, want.values)


def test_trajectory_just_after_a_source_starts(op64):
    # 1e-5 after a source segment starts, the segment integral SI(0, 1e-5, 1)
    # is served by the rescaled fit of SI(0, 1, 1); its own adaptive fit
    # misses the tolerance below a length of about 3e-5
    ds = orc.decompose(op64)
    f = op64.function(np.sin(op64.coords))
    c = T_1D / 3
    spec = replace(make_spec_51(op64, 1.0), f_segments=((c, T_1D, f),))
    u = op64.function(np.zeros(op64.n))
    y = ctl.trajectory(spec, op64, u, [c + 1e-5])[0]
    want = ds.from_eig(orc._source_eig(ds, spec.f_segments, c + 1e-5))
    assert ops.norm_m(op64, y.values - want.values) <= 1e-10 * ops.norm_m(op64, want)


def test_final_state_on_ball_boundary(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.2 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    assert abs(sol.final_miss - spec.eps) <= 1e-6 * phi0_62


def test_cost_zero_for_zero_data(op20):
    z = op20.function(np.zeros(op20.n))
    spec = ctl.ProblemSpec(
        T=T_1D, alpha=ALPHA,
        beta_segments=((0.0, T_1D, 1.0),), w_segments=(z,), ystar=z, eps=0.5)
    assert ctl.cost_j(ctl.homogenize(spec, op20), op20, z) == 0.0


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
    got = ctl.cost_j(hd64, op64, u)
    # measured 1.1e-14 here, and at most 4.6e-14 over 20 random u
    assert abs(got - want) <= 1e-12 * abs(want)


def test_optimality_of_cost(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    umin = ctl.optimal_control(hd62, op62, 0.0)
    j_min = ctl.cost_j(hd62, op62, umin)
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
            assert ctl.cost_j(hd62, op62, u_try) >= sol.cost - 1e-10
            tested += 1
        if tested == 10:
            break
    assert tested == 10


def test_cost_adds_no_fit_and_no_factorization(op62, hd62, monkeypatch):
    # J applies the Psi fit that the KKT residual (and the Phi surrogate and
    # PCG) already factored
    umin = ctl.optimal_control(hd62, op62, 0.0)
    ctl.kkt_residual(hd62, op62, umin, 0.0)
    factors = len(op62._solvers)
    monkeypatch.setattr(rat, "fit_rational", None)
    monkeypatch.setattr(rat, "fit_rational_shared", None)
    assert np.isfinite(ctl.cost_j(hd62, op62, umin))
    assert len(op62._solvers) == factors


def _source_cases(op):
    # f = 50 sin x, the source of the roadmap's stationarity measurement:
    # on all of [0, T]; on three segments with different amplitudes; and on
    # two segments that meet at T/2, inside the beta segment [T/3, 2T/3]
    f = op.function(50.0 * np.sin(op.coords))
    T = T_1D
    return {
        "one": ((0.0, T, f),),
        "three": ((0.0, T / 3, f), (T / 3, 2 * T / 3, op.function(-0.5 * f.values)),
                  (2 * T / 3, T, op.function(2.0 * f.values))),
        "inside": ((0.0, T / 2, f), (T / 2, T, op.function(-f.values))),
    }


@pytest.mark.parametrize("case", ["one", "three", "inside"])
def test_cost_is_stationary_at_u_min_with_source(op62, case):
    # the true J, the oracle's Gauss rule in time on panels split at the
    # source breakpoints with every mode exact, is stationary at u_min =
    # Psi^{-1} psi: psi is exact with a source too.  Measured max 1.2e-11,
    # 1.1e-11 and 6.7e-11 over the directions below, 5.4e-12 with f = 0; a
    # psi that shifts w by the source response at the segment midpoint gives
    # 3e-4 to 0.2.  J is quadratic, so the central difference with step
    # ||u_min|| is its directional derivative to rounding
    spec = replace(make_spec_51(op62, 1.0), f_segments=_source_cases(op62)[case])
    hd = ctl.homogenize(spec, op62)
    ds = orc.decompose(op62)
    u = ctl.optimal_control(hd, op62, 0.0)
    psi_u = rat.apply_rational(op62, ctl._psi_fit(hd), u).values
    u_hat, h = ds.to_eig(u), ops.norm_m(op62, u)
    rng = np.random.default_rng(25)
    for _ in range(5):
        d = rng.standard_normal(op62.n)
        d /= ops.norm_m(op62, d)
        d_hat = ds.to_eig(d)
        dj = (orc.oracle_cost(spec, ds, u_hat + h * d_hat)
              - orc.oracle_cost(spec, ds, u_hat - h * d_hat)) / (2 * h)
        scale = abs(ops.inner_m(op62, psi_u, d)) + abs(ops.inner_m(op62, hd.psi, d))
        assert abs(dj) <= 1e-10 * scale


@pytest.mark.parametrize("case", ["one", "three", "inside"])
def test_solution_with_source_matches_oracle(op62, case):
    # criterion 3's thresholds with f != 0; measured u 2.3e-11, 2.3e-11 and
    # 4.6e-12, mu <= 3.6e-12, cost <= 1.9e-11
    spec = replace(make_spec_51(op62, 1.0), f_segments=_source_cases(op62)[case])
    hd = ctl.homogenize(spec, op62)
    spec = replace(spec, eps=0.5 * ctl.phi(hd, op62, 0.0))
    sol = ctl.solve_problem(spec, op62, hd=hd)
    osol = orc.oracle_solve_control(spec, op62)
    u_err = ops.norm_m(op62, sol.u_opt.values - osol.u_opt.values) \
        / ops.norm_m(op62, osol.u_opt)
    assert u_err <= 1e-7
    assert abs(sol.mu_eps - osol.mu_eps) <= 1e-8 * osol.mu_eps
    assert abs(sol.cost - osol.cost) <= 1e-7 * abs(osol.cost)


# ---------------------------------------------------------------------------
# KKT residual
# ---------------------------------------------------------------------------

def test_kkt_at_solution(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    assert sol.kkt <= 1e-6


def test_kkt_at_umin(op62, hd62):
    umin = ctl.optimal_control(hd62, op62, 0.0)
    assert ctl.kkt_residual(hd62, op62, umin, 0.0) <= 1e-8


def test_kkt_increases_away_from_solution(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    umin = ctl.optimal_control(hd62, op62, 0.0)
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
    umin = ctl.optimal_control(hd62, op62, 0.0)
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
    umin = ctl.optimal_control(hd62, op62, 0.0)
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


def test_solution_reports_pcg_convergence(op62, hd62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    sol = ctl.solve_problem(spec, op62, hd=hd62)
    assert sol.pcg_stop == "converged"
    assert sol.kkt <= 1e-10


@pytest.mark.parametrize("frac", [0.5, 1.5])
def test_solution_kkt_is_the_pcg_residual(op62, hd62, phi0_62, frac):
    # kkt comes from the PCG report at every mu, mu = 0 (frac > 1) included,
    # and is the KKT residual of the returned u bit for bit
    sol = ctl.solve_problem(make_spec_51(op62, frac * phi0_62), op62, hd=hd62)
    assert (sol.mu_eps == 0.0) == (frac > 1)
    assert sol.pcg_stop == "converged"
    assert sol.kkt == ctl.kkt_residual(hd62, op62, sol.u_opt, sol.mu_eps)


def test_problem_with_other_data_refits_nothing(op62, monkeypatch):
    # every fit depends on T, alpha, beta and mu only: a second problem with
    # the same T, alpha and beta reuses homogenization, Phi(0), Psi and
    # mu = 0 control fits of the first, whatever its data
    spec = make_spec_51(op62, 1.0)
    hd = ctl.homogenize(spec, op62)
    phi0 = ctl.phi(hd, op62, 0.0)
    ctl.kkt_residual(hd, op62, ctl.optimal_control(hd, op62, 0.0), 0.0)
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
    u2 = ctl.optimal_control(hd2, op62, 0.0)
    assert ctl.kkt_residual(hd2, op62, u2, 0.0) <= 1e-8
    assert calls == []
    assert np.isfinite(phi0_2) and abs(phi0_2 - phi0) > 1e-3 * phi0
