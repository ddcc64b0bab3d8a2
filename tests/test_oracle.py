import numpy as np
import pytest

from parabolic_control import cli
from parabolic_control import control as ctl
from parabolic_control import operators as ops
from parabolic_control import oracle as orc
from parabolic_control import rational as rat
from parabolic_control import symbols as sym
from parabolic_control.config import load_config

from conftest import make_spec_51, T_1D


def test_decompose_eigenvalues_near_continuum(op20):
    ds = orc.decompose(op20)
    h = np.pi / 20
    lam_desc = ds.eigenvalues[::-1]  # closest to zero first
    for k in range(1, 6):
        err = abs(lam_desc[k - 1] + k**2)
        assert err <= 0.12 * k**4 * h**2


def test_decompose_m_orthonormal(op62):
    ds = orc.decompose(op62)
    V = ds.vectors
    G = V.T @ (op62.M[:, None] * V)
    assert np.max(np.abs(G - np.eye(op62.n))) <= 1e-10


def test_decompose_reconstruction(op62):
    ds = orc.decompose(op62)
    for i in (0, 10, op62.n - 1):
        v = ds.vectors[:, i]
        r = ops.apply_op(op62, v).values - ds.eigenvalues[i] * v
        assert ops.norm_m(op62, r) <= 1e-9 * abs(ds.eigenvalues[i])


def test_spectral_completeness(op62):
    ds = orc.decompose(op62)
    rng = np.random.default_rng(31)
    for _ in range(20):
        v = rng.standard_normal(op62.n)
        back = ds.from_eig(ds.to_eig(v)).values
        assert ops.norm_m(op62, back - v) <= 1e-9 * ops.norm_m(op62, v)


def test_decompose_size_guard():
    op = ops.assemble_1d(orc.MAX_DENSE_N + 2)
    assert op.n == orc.MAX_DENSE_N + 1
    with pytest.raises(ops.DimensionError):
        orc.decompose(op)


def test_oracle_apply_identity_and_generator(op62):
    ds = orc.decompose(op62)
    rng = np.random.default_rng(32)
    v = op62.function(rng.standard_normal(op62.n))
    same = orc.oracle_apply(ds, sym.const(1.0), v)
    assert np.allclose(same.values, v.values, rtol=1e-12)
    av = orc.oracle_apply(ds, sym.ident(), v)
    want = ops.apply_op(op62, v).values
    assert ops.norm_m(op62, av.values - want) <= 1e-9 * ops.norm_m(op62, want)


def test_oracle_apply_rejects_singular_symbol(op62):
    ds = orc.decompose(op62)
    v = op62.function(np.ones(op62.n))
    bad = sym.const(1.0) / (sym.ident() - sym.const(ds.eigenvalues[5]))
    with pytest.raises(ValueError):
        orc.oracle_apply(ds, bad, v)


def test_oracle_semigroup_cross_validation(op64):
    # the central cross-check: exact spectral exponential vs rational path
    ds = orc.decompose(op64)
    rng = np.random.default_rng(33)
    v = op64.function(rng.standard_normal(op64.n))
    want = orc.oracle_apply(ds, sym.expm(T_1D), v)
    got = rat.semigroup_apply(op64, T_1D, v)
    _, rep = rat.fit_rational(sym.expm(T_1D), rat.DEGREE_CAP, rat.FIT_TOL)
    bound = (rep.max_error + 1e-9) * ops.norm_m(op64, v)
    assert ops.norm_m(op64, got.values - want.values) <= bound


def test_oracle_end_to_end_equivalence(op64, hd64, phi0_64):
    spec = make_spec_51(op64, 0.5 * phi0_64)
    sol = ctl.solve_problem(spec, op64, hd=hd64)
    osol = orc.oracle_solve_control(spec, op64)
    u_err = ops.norm_m(op64, sol.u_opt.values - osol.u_opt.values) \
        / ops.norm_m(op64, osol.u_opt)
    assert u_err <= 1e-7
    assert abs(sol.mu_eps - osol.mu_eps) / osol.mu_eps <= 1e-8
    assert abs(sol.cost - osol.cost) / osol.cost <= 1e-7


def test_oracle_trivial_branch(op64, hd64, phi0_64):
    spec = make_spec_51(op64, 1.5 * phi0_64)
    sol = ctl.solve_problem(spec, op64, hd=hd64)
    osol = orc.oracle_solve_control(spec, op64)
    assert sol.mu_eps == osol.mu_eps == 0.0
    umin = ctl.optimal_control(hd64, op64, 0.0)
    assert np.array_equal(sol.u_opt.values, umin.values)
    u_err = ops.norm_m(op64, sol.u_opt.values - osol.u_opt.values) \
        / ops.norm_m(op64, osol.u_opt)
    assert u_err <= 1e-7


@pytest.fixture(scope="module")
def example2d():
    """The published 2D problem (h = 1/30, n = 2,581) with its dense
    eigendecomposition."""
    cfg = load_config("example2d")
    op = cli.build_operator_2d(cfg)
    hd = ctl.homogenize(cli.build_problem_2d(cfg, op, 1.0), op)
    return cfg, op, hd, ctl.phi(hd, op, 0.0), orc.decompose(op)


@pytest.mark.parametrize("frac", [
    pytest.param(0.1, marks=pytest.mark.xfail(
        strict=True, reason="the realized-miss polish solves the perturbed "
        "system of the fitted S_2T: mu is off by 8.5e-4 and u by 4.2e-4")),
    0.5, 0.9])
def test_oracle_2d_published_solves(example2d, frac):
    cfg, op, hd, phi0, ds = example2d
    spec = cli.build_problem_2d(cfg, op, frac * phi0)
    sol = ctl.solve_problem(spec, op, hd=hd)
    osol = orc.oracle_solve_control(spec, op, ds)
    u_err = ops.norm_m(op, sol.u_opt.values - osol.u_opt.values) \
        / ops.norm_m(op, osol.u_opt)
    assert u_err <= 1e-7
    assert abs(sol.mu_eps - osol.mu_eps) / osol.mu_eps <= 1e-8


_PHI_MUS = np.concatenate([[0.0], np.logspace(-7, 12, 40)])


def _phi_oracle_error(op, hd, ds):
    """max |Phi(mu) - oracle Phi(mu)| / Phi(0) over mu = 0 and 40 log-spaced
    points on [1e-7, 1e12].  Each mu's resolvent factors are dropped once its
    value is taken, so a 2D sweep holds the factors of one resolvent at a
    time."""
    want = orc.oracle_phi(hd.spec, ds)
    phi0 = want(0.0)
    err = 0.0
    for mu in _PHI_MUS:
        err = max(err, abs(ctl.phi(hd, op, mu) - want(mu)) / phi0)
        ctl._drop_resolvents(hd)
    return err


@pytest.fixture(scope="module", params=[62, 1000])
def example1d(request):
    """The published 1D problem on n_el elements with its dense
    eigendecomposition."""
    cfg = load_config("example1d", n_el=request.param)
    op = cli.build_operator_1d(cfg)
    hd = ctl.homogenize(cli.build_problem_1d(cfg, op, 1.0), op)
    return cfg, op, hd, orc.decompose(op)


def test_oracle_phi_1d(example1d):
    # Phi = ||r_mu(A) g||_M; the resolvent's scale 1/alpha = 1e4 multiplies
    # its fit error, and the measured error stays below 3.5e-11 Phi(0)
    _, op, hd, ds = example1d
    assert _phi_oracle_error(op, hd, ds) <= 1e-10


def test_oracle_phi_2d(example2d):
    _, op, hd, _, ds = example2d
    assert _phi_oracle_error(op, hd, ds) <= 1e-10


def _surrogate_oracle_error(op, hd, ds):
    """max |Phi_s(mu) - oracle Phi(mu)| / Phi(0) for the Ritz surrogate on the
    problem's base space, over mu = 0 and 60 log-spaced points on [1e-7,
    1e12]: the values the Phi curve, the root find and the polish read."""
    want = orc.oracle_phi(hd.spec, ds)
    surrogate = ctl._phi_surrogate(hd, op)
    mus = np.concatenate([[0.0], np.logspace(-7, 12, 60)])
    return max(abs(surrogate(mu)[0] - want(mu)) for mu in mus) / want(0.0)


def test_phi_surrogate_matches_oracle_1d(example1d):
    # two Arnoldi passes over the S_2T poles and twice the problem fit's
    # (which S_T, Psi and r_0 share), then one more over the problem fit's:
    # measured 9.9e-13 on n_el = 62, where the space fills, and 8.9e-13 on
    # n_el = 1000, where one pass was 6.9e-5 off
    _, op, hd, ds = example1d
    assert _surrogate_oracle_error(op, hd, ds) <= 1e-11


def test_phi_surrogate_matches_oracle_2d(example2d):
    # within solve_mu's tolerance 1e-8 Phi(0): measured 6.7e-13 with S_T,
    # Psi and r_0 on the problem fit's shared poles (3.6e-12 with S_T on a
    # fit of its own, 1.3e-9 with separate Psi and r_0 fits), where one pass
    # was 4.6e-5 off
    _, op, hd, _, ds = example2d
    assert _surrogate_oracle_error(op, hd, ds) <= 1e-8


def test_oracle_solve_mu_on_a_fine_1d_mesh(example1d):
    cfg, op, hd, ds = example1d
    eps = 0.1 * ctl.phi(hd, op, 0.0)
    want = orc.oracle_solve_control(cli.build_problem_1d(cfg, op, eps), op, ds).mu_eps
    assert abs(ctl.solve_mu(hd, op, eps) - want) <= 1e-7 * want


@pytest.mark.parametrize("example1d", [pytest.param(1000, marks=pytest.mark.xfail(
    strict=True, raises=RuntimeError, reason="at mu = 2.7e22 the realized "
    "system amplifies the fit errors: the control's refinement stalls at its "
    "seed, the realized miss is 1.6e14 Phi(0), and the polish's first Newton "
    "step leaves MU_BRACKET_CAP"))], indirect=True)
def test_oracle_solve_problem_on_a_fine_1d_mesh(example1d):
    cfg, op, hd, ds = example1d
    spec = cli.build_problem_1d(cfg, op, 0.1 * ctl.phi(hd, op, 0.0))
    sol = ctl.solve_problem(spec, op, hd=hd)
    osol = orc.oracle_solve_control(spec, op, ds)
    u_err = ops.norm_m(op, sol.u_opt.values - osol.u_opt.values) \
        / ops.norm_m(op, osol.u_opt)
    assert u_err <= 1e-6
    assert abs(sol.mu_eps - osol.mu_eps) <= 1e-6 * osol.mu_eps


@pytest.mark.parametrize("example1d", [1000], indirect=True)
def test_sine_oracle_matches_the_dense_one(example1d):
    # the closed form of the isotropic operator against its dense
    # eigendecomposition: eigenvalues within 1e-13 of the largest (measured
    # 1.0e-14; eigh's absolute error leaves the smallest 1.6e-11 relative
    # off), an apply within 2e-12 (measured 2.0e-13), and the oracle solve's
    # mu and u within 3e-11 at every published eps (measured 2.5e-12 and
    # 1.3e-12 at most)
    cfg, op, _, ds = example1d
    ss = orc.SineSpectral(op)
    lam = ds.eigenvalues
    assert np.max(np.abs(ss.eigenvalues - lam)) <= 1e-13 * np.max(np.abs(lam))
    spec = cli.build_problem_1d(cfg, op, 1.0)
    want, got = (orc.oracle_apply(s, sym.expm(T_1D), spec.ystar) for s in (ds, ss))
    assert ops.norm_m(op, got.values - want.values) <= 2e-12 * ops.norm_m(op, want)
    phi0 = orc.oracle_phi(spec, ds)(0.0)
    for frac in (0.1, 0.5, 0.9):
        spec = cli.build_problem_1d(cfg, op, frac * phi0)
        want, got = (orc.oracle_solve_control(spec, op, s) for s in (ds, ss))
        assert abs(got.mu_eps - want.mu_eps) <= 3e-11 * want.mu_eps
        assert ops.norm_m(op, got.u_opt.values - want.u_opt.values) \
            <= 3e-11 * ops.norm_m(op, want.u_opt)


def test_sine_oracle_needs_the_isotropic_operator():
    with pytest.raises(ValueError, match="isotropic 1D operator"):
        orc.SineSpectral(ops.assemble_1d(62, a=-0.8))


@pytest.fixture(scope="module")
def example1d_4000():
    """The published 1D problem on n_el = 4000 with its sine oracle: n =
    3,999 is above the dense oracle's MAX_DENSE_N."""
    cfg = load_config("example1d", n_el=4000)
    op = cli.build_operator_1d(cfg)
    hd = ctl.homogenize(cli.build_problem_1d(cfg, op, 1.0), op)
    return cfg, op, hd, orc.SineSpectral(op)


@pytest.mark.parametrize("frac", [0.5, 0.9])
def test_solve_problem_matches_the_sine_oracle_at_n_el_4000(example1d_4000, frac):
    # measured mu 1.1e-11 and 6.1e-11 off, u 1.1e-11 and 2.4e-11 (eps = 0.5
    # and 0.9 Phi(0)); at eps = 0.9 the root's tolerance, 1e-8 Phi(0) on a
    # flat Phi, sets mu's error.  eps = 0.1 raises (ROADMAP item 2)
    cfg, op, hd, ss = example1d_4000
    spec = cli.build_problem_1d(cfg, op, frac * ctl.phi(hd, op, 0.0))
    sol = ctl.solve_problem(spec, op, hd=hd)
    osol = orc.oracle_solve_control(spec, op, ss)
    assert abs(sol.mu_eps - osol.mu_eps) <= 2e-10 * osol.mu_eps
    assert ops.norm_m(op, sol.u_opt.values - osol.u_opt.values) \
        <= 1e-10 * ops.norm_m(op, osol.u_opt)
