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
    got = rat.semigroup_apply(op64, T_1D, v, 1e-12)
    _, rep = rat.fit_cached([sym.expm(T_1D)], rat.DEGREE_CAP, 1e-12)
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
