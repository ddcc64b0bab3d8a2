from collections import OrderedDict
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

from conftest import make_spec_51, psi_without_source, shifted_factors, T_1D, ALPHA


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


@pytest.mark.parametrize("change, message", [
    ("T", "horizon T must be positive"),
    ("T-nan", "horizon T must be positive and finite"),
    ("T-inf", "horizon T must be positive and finite"),
    ("alpha-nan", "control weight alpha must be positive and finite"),
    ("eps", "tolerance eps must be positive"),
    ("eps-nan", "tolerance eps must be positive"),
    ("w", "need one w snapshot per beta segment"),
    ("beta-nan", "beta must be nonnegative and finite"),
    ("breakpoints", "beta segment breakpoints must increase"),
    ("breakpoint-nan", "beta segment breakpoints must increase"),
    ("end", "beta segments must end at T"),
    ("source", "source segments need 0 <= a < b"),
    ("ystar-nan", "final target ystar must be finite"),
    ("w-nan", "target trajectory w must be finite"),
    ("f-inf", "source f must be finite"),
])
def test_problem_spec_names_each_bad_input(op20, change, message):
    # every check fails on NaN, which compares False; eps = inf is valid
    # (no constraint).  Non-finite data used to reach the root find, which
    # raised only after the problem fit and the surrogate were built
    spec, T = make_spec_51(op20, 1.0), T_1D
    w, f = spec.w_segments[0], spec.ystar
    nan = float("nan")

    def spoiled(v, x):
        values = v.values.copy()
        values[op20.n // 2] = x
        return op20.function(values)
    bad = {
        "T": dict(T=-T),
        "T-nan": dict(T=nan),
        "T-inf": dict(T=float("inf")),
        "alpha-nan": dict(alpha=nan),
        "eps": dict(eps=0.0),
        "eps-nan": dict(eps=nan),
        "beta-nan": dict(beta_segments=((0.0, T / 2, 0.0), (T / 2, T, nan)),
                         w_segments=(w, w)),
        "breakpoint-nan": dict(beta_segments=((0.0, nan, 1.0), (T / 2, T, 1.0)),
                               w_segments=(w, w)),
        "w": dict(w_segments=(w, w)),
        "breakpoints": dict(beta_segments=((0.0, 0.0, 1.0), (0.0, T, 1.0)),
                            w_segments=(w, w)),
        "end": dict(beta_segments=((0.0, T / 2, 1.0), (T / 2, 0.9 * T, 1.0)),
                    w_segments=(w, w)),
        "source": dict(f_segments=((T / 2, T / 2, f),)),
        "ystar-nan": dict(ystar=spoiled(f, nan)),
        "w-nan": dict(w_segments=(*spec.w_segments[:-1], spoiled(w, nan))),
        "f-inf": dict(f_segments=((0.0, T / 2, spoiled(f, float("inf"))),)),
    }[change]
    with pytest.raises(ValueError, match=message):
        replace(spec, **bad)
    assert replace(spec, eps=float("inf")).eps == float("inf")


def test_solve_inputs_out_of_range_are_named(op20):
    # NaN is named too: solve_mu at eps = NaN made 4 fits and 29 LUs after
    # Phi(0), then raised a FitError ("symbol is not finite"), as phi and
    # optimal_control did at mu = NaN
    spec = make_spec_51(op20, 1.0)
    hd = ctl.homogenize(spec, op20)
    u = op20.function(np.ones(op20.n))
    nan = float("nan")
    for t in (-1e-3, 1.5 * spec.T, nan):
        with pytest.raises(ValueError, match=r"snapshot time \S+ outside \[0, T\]"):
            ctl.trajectory(spec, op20, u, [0.5 * spec.T, t])
    for eps in (0.0, -1.0, nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            ctl.solve_mu(hd, op20, eps)
    for mu in (-1.0, nan):
        for call in (ctl.optimal_control, ctl.phi):
            with pytest.raises(ValueError, match="mu must be >= 0"):
                call(hd, op20, mu)
    assert hd._phi_values == {}


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
    # int_0^T S_tau f dtau = A^{-1}(S_T - I) f, checked on dense eigenpairs:
    # it is the final state of the zero control
    ds = orc.decompose(op64)
    lam = ds.eigenvalues
    rng = np.random.default_rng(21)
    f = op64.function(rng.standard_normal(op64.n))
    spec = replace(make_spec_51(op64, 1.0), f_segments=((0.0, T_1D, f),))
    got = ctl.trajectory(spec, op64, op64.function(np.zeros(op64.n)), [T_1D])[0].values
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


@pytest.mark.parametrize("T, case", [(0.01, None), (0.05, None), (T_1D, "three")],
                         ids=["0.01", "0.05", "0.01-three"])
def test_problem_fit_is_one_pole_set_within_each_components_target(op20, T, case):
    # psi's segment integral, S_T = e^{T lam}, Psi and r_0 = 1/Psi share one
    # fit: their norm estimates span nine orders of magnitude (3.4e-2 to
    # 7.6e7), and each one is within FIT_TOL of its own norm (a target of
    # FIT_TOL times the largest norm let the segment integral miss its own
    # by far).  With a source, psi's source responses G_kj (one per source
    # segment that starts before the beta segment ends) and p(T)'s segment
    # integrals join the same fit, between the segment integrals and S_T
    spec = make_spec_51(op20, 1.0, T=T)
    if case is not None:
        spec = replace(spec, f_segments=_source_cases(op20)[case])
    big_psi = ctl._big_psi(spec)
    a, b = T / 3, 2 * T / 3
    symbols = [sym.segment_integral(a, b, 1),
               *(sym.source_response_integral(a, b, c, d)
                 for c, d, _ in spec.f_segments if c < b),
               *(sym.segment_integral(T - d, T - c, 1) for c, d, _ in spec.f_segments),
               sym.expm(T), big_psi, sym.const(1.0) / big_psi]
    hd = ctl.homogenize(spec, op20)
    fits = hd.problem_fit
    assert len(fits) == len(symbols) == (4 if case is None else 9)
    assert len({f.poles for f in fits}) == 1
    for g, f in zip(symbols, fits):
        err = np.max(np.abs(f(rat._VALID) - g(rat._VALID)))
        assert err <= rat.FIT_TOL * rat._norm_estimate(g(rat._TRAIN))
    # r_0 is the problem fit's, applied through the problem's child of the
    # operator, which caches the problem fit's factors
    r_op, r_0 = ctl._resolvent(hd, 0.0)
    assert r_op is hd.problem_op and r_op._parent is op20 and r_0 is fits[-1]


_ITEM_9 = ("ROADMAP item 9: every fit samples and judges in lambda, not in z = T lambda, "
           "so the problem fit misses FIT_TOL at degree 40 ")


@pytest.mark.parametrize("T, start", [
    (30.0, 0.0),
    pytest.param(100.0, 0.0, marks=pytest.mark.xfail(
        strict=True, raises=rat.FitError, reason=_ITEM_9 + "(best error 1.654e-13)")),
    (T_1D, 1e-5),
    pytest.param(T_1D, 1e-6, marks=pytest.mark.xfail(
        strict=True, raises=rat.FitError, reason=_ITEM_9 + "(best error 5.231e-3)")),
])
def test_homogenize_at_long_horizons_and_early_beta_windows(op62, T, start):
    # inputs that ProblemSpec accepts: the reference problem at a longer
    # horizon, and at T = 0.01 with beta active on [start, T/3] instead of
    # [T/3, 2T/3].  Where the problem fit is made, psi matches the dense
    # oracle (measured 1.9e-8 at T = 30 and 5.1e-14 for the window from 1e-5)
    spec = make_spec_51(op62, 1.0, T=T)
    if start:
        spec = replace(spec, beta_segments=(
            (0.0, start, 0.0), (start, T / 3, 1.0), (T / 3, T, 0.0)))
    hd = ctl.homogenize(spec, op62)
    ds = orc.decompose(op62)
    want = ds.from_eig(orc._homogenized_eig(spec, ds)[1]).values
    assert ops.norm_m(op62, hd.psi.values - want) <= 1e-7 * ops.norm_m(op62, want)


def test_homogenize_applies_psis_segment_integrals_in_one_pass(op20, monkeypatch):
    # with beta active on all three segments the problem fit has three
    # segment-integral components (and S_T, Psi and r_0) on one pole set,
    # and homogenize applies
    # them together: one shifted solve per stored pole, where one apply per
    # segment took three times as many; psi matches the per-segment sum to
    # roundoff
    T = T_1D
    ws = [ops.project_to_mesh(op20, ops.Indicator1D(a, b))
          for a, b in ((0.2, 1.0), (np.pi / 5, 2 * np.pi / 5), (1.5, 2.5))]
    ystar = ops.project_to_mesh(op20, ops.Indicator1D(3 * np.pi / 5, 4 * np.pi / 5))
    spec = ctl.ProblemSpec(T=T, alpha=ALPHA, beta_segments=(
        (0.0, T / 3, 0.5), (T / 3, 2 * T / 3, 1.0), (2 * T / 3, T, 2.0)),
        w_segments=tuple(ws), ystar=ystar, eps=1.0)
    solve, shifts = rat.solve_shifted, []

    def counting(op, z, v):
        shifts.append(z)
        return solve(op, z, v)
    monkeypatch.setattr(rat, "solve_shifted", counting)
    hd = ctl.homogenize(spec, op20)
    fits = hd.problem_fit
    assert len(fits) == 6
    assert shifts == list(fits[0].poles)
    monkeypatch.undo()
    per_segment = psi_without_source(spec, op20)
    assert np.max(np.abs(hd.psi.values - per_segment)) <= 1e-14 * np.max(np.abs(per_segment))


def test_2d_homogenize_and_phi0_factor_the_problem_fit_once():
    # homogenize factors the problem fit's poles, on the problem's child of
    # the operator; Phi(0) applies S_T, Psi and r_0 on those factors and adds
    # none: 12 shifts, where the problem fit without S_T and the semigroup
    # fit for g took 11 + 6, and the separate segment-integral, Psi, S_T and
    # r_0 fits 9 + 8 + 6 + 9
    cfg = load_config("example2d")
    op = cli.build_operator_2d(cfg)
    hd = ctl.homogenize(cli.build_problem_2d(cfg, op, 1.0), op)
    assert len(hd.problem_op._solvers) == len(hd.problem_fit[0].poles) == 12
    assert ops.live_factors(op) == 12
    ctl.phi(hd, op, 0.0)
    assert len(hd.problem_op._solvers) == ops.live_factors(op) == 12


def test_2d_homogenize_with_a_source_factors_the_problem_fit_once():
    # with a source on three segments, psi's source responses and p(T)'s
    # segment integrals join the problem fit: homogenize and Phi(0) factor
    # its 13 poles, where a fit per source term took 51 LUs
    cfg = load_config("example2d")
    op = cli.build_operator_2d(cfg)
    spec, T = cli.build_problem_2d(cfg, op, 1.0), cfg.T
    f = ops.project_to_mesh(op, ops.BallIndicator2D((0.3, 0.3), 0.3)).values
    spec = replace(spec, f_segments=tuple(
        (T * j / 3, T * (j + 1) / 3, op.function(amp * f))
        for j, amp in enumerate((50.0, -25.0, 100.0))))
    hd = ctl.homogenize(spec, op)
    ctl.phi(hd, op, 0.0)
    assert len(hd.problem_op._solvers) == ops.live_factors(op) \
        == len(hd.problem_fit[0].poles) <= 13


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_problem_fits_s_t_matches_the_semigroup(dim):
    # the problem fit's S_T component is within FIT_TOL of e^{T lam}'s own
    # norm, and on the published ystar_hom and psi it agrees with the
    # semigroup fit of the frozen exponential table (measured 1.2e-12 to
    # 3.3e-12 relative)
    _, op, hd, _ = _example1d(62) if dim == "1d" else _example2d(1 / 30)
    st, g = hd.problem_fit[-3], sym.expm(hd.spec.T)
    assert np.max(np.abs(st(rat._VALID) - g(rat._VALID))) \
        <= rat.FIT_TOL * rat._norm_estimate(g(rat._TRAIN))
    for v in (hd.ystar_hom, hd.psi):
        want = rat.semigroup_apply(op, hd.spec.T, v).values
        got = rat.apply_rational(op, st, v).values
        assert ops.norm_m(op, got - want) <= 1e-10 * ops.norm_m(op, want)


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
    state = set(vars(hd))
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
    assert hd._phi_values == {} and set(vars(hd)) == state


@pytest.mark.parametrize("change", ["ystar", "alpha", "beta", "w", "f"])
def test_solve_problem_rejects_data_other_than_hd_was_built_from(op20, change):
    # the solve reads alpha, beta, w and f from hd alone: a spec whose data
    # differ would be ignored there, or mixed with hd's (a doubled ystar
    # raised a misleading polish failure); only eps may differ
    spec = make_spec_51(op20, 1.0)
    hd = ctl.homogenize(spec, op20)
    state = set(vars(hd))
    double = lambda mf: op20.function(2.0 * mf.values)
    other = {
        "ystar": lambda s: replace(s, ystar=double(s.ystar)),
        "alpha": lambda s: replace(s, alpha=2.0 * s.alpha),
        "beta": lambda s: replace(s, beta_segments=tuple(
            (a, b, 2.0 * beta) for a, b, beta in s.beta_segments)),
        "w": lambda s: replace(s, w_segments=tuple(map(double, s.w_segments))),
        "f": lambda s: replace(s, f_segments=((0.0, s.T, s.ystar),)),
    }[change](replace(spec, eps=0.5))
    with pytest.raises(ValueError, match="in more than eps"):
        ctl.solve_problem(other, op20, hd=hd)
    assert hd._phi_values == {} and set(vars(hd)) == state


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
    big_psi = sym.const(ALPHA)
    problem = ctl.homogenize(spec, op20)
    hd = ctl.HomogenizedData(
        spec=spec, op=op20, ystar_hom=zero, psi=op20.function(psi_vec),
        big_psi_symbol=big_psi, problem_fit=problem.problem_fit,
        problem_op=problem.problem_op)
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
    """Shifted factorizations, set-up included, and exact Phi values per
    solve of the published example1d solves on n_el elements."""
    with shifted_factors() as made:
        cfg, op, hd, phi0 = _example1d(n_el)
        evals = [ctl.solve_problem(cli.build_problem_1d(cfg, op, f * phi0), op,
                                   hd=hd).phi_evals
                 for f in cfg.eps_fractions]
    return len(made), evals


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


def _example2d(h):
    cfg = load_config("example2d", h=h)
    op = cli.build_operator_2d(cfg)
    hd = ctl.homogenize(cli.build_problem_2d(cfg, op, 1.0), op)
    return cfg, op, hd, ctl.phi(hd, op, 0.0)


def test_fine_2d_mesh_homogenizes():
    # h = 1/60 (n = 10,561): about 70 MB of shifted factors for Phi(0), the
    # problem fit's 12
    coarse, fine = _example2d(1 / 30)[3], _example2d(1 / 60)[3]
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


def test_root_find_raises_when_a_newton_step_leaves_the_cap():
    # a tiny given slope sends the first Newton step to log mu ~ 7e3, where
    # exp overflows; the step is checked against the cap first
    with pytest.raises(RuntimeError, match="no root"):
        ctl._root(lambda mu: 2.0, 1.0, 1e-3, 1.0, slope=-1e-4)


def test_root_find_raises_after_its_evaluation_limit(monkeypatch):
    # f stays above the target and mu climbs by a factor 10 a step: the
    # limit ends the find before the cap would
    calls = []

    def f(mu):
        calls.append(mu)
        return 2.0
    monkeypatch.setattr(ctl, "_ROOT_EVALS", 5)
    with pytest.raises(RuntimeError, match="root find did not converge in 5 evaluations"):
        ctl._root(f, 1.0, 1e-3, 1.0)
    assert calls == pytest.approx([1.0, 1e1, 1e2, 1e3, 1e4])


@pytest.mark.parametrize("value", [float("nan"), 0.0])
def test_root_find_stops_at_a_value_that_is_not_positive_and_finite(value):
    # log(f / target) needs f > 0: the find stops at the first NaN or 0,
    # after one evaluation, and names mu and the value
    calls = []

    def f(mu):
        calls.append(mu)
        return value
    with pytest.raises(RuntimeError, match=re.escape(
            f"root find needs positive finite values: f(1.0) = {value!r}")):
        ctl._root(f, 1.0, 1e-3, 1.0)
    assert calls == [1.0]


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


_PUBLISHED = pytest.mark.parametrize("experiment,variant", [
    ("example1d", "isotropic"), ("example1d", "discontinuous"),
    ("example2d", None)])


def _published(experiment, variant):
    """(cfg, op, build, hd, phi0) of a published problem, with Phi(0) known."""
    if experiment == "example1d":
        cfg = load_config(experiment, variant=variant)
        op = cli.build_operator_1d(cfg)
        build = cli.build_problem_1d
    else:
        cfg = load_config(experiment)
        op = cli.build_operator_2d(cfg)
        build = cli.build_problem_2d
    hd = ctl.homogenize(build(cfg, op, 1.0), op)
    return cfg, op, build, hd, ctl.phi(hd, op, 0.0)


@_PUBLISHED
def test_solve_mu_meets_the_value_tolerance(experiment, variant):
    # at every published eps, and at 0.03 Phi(0) in 2D (mu ~ 7e12), the
    # surrogate root is certified by one exact Phi value (with one Arnoldi
    # pass over the base poles, the 2D eps = 0.1 and 0.03 roots took two).
    # A fresh copy of the problem, with no earlier solves, gives the same root
    cfg, op, build, hd, phi0 = _published(experiment, variant)
    mus = {}
    for frac in cfg.eps_fractions + ((0.03,) if experiment == "example2d" else ()):
        n = len(hd._phi_values)
        mus[frac] = ctl.solve_mu(hd, op, frac * phi0)
        assert len(hd._phi_values) - n == 1, frac
        assert abs(ctl.phi(hd, op, mus[frac]) - frac * phi0) <= 1e-8 * phi0
    fresh = ctl.homogenize(build(cfg, op, 1.0), op)
    assert ctl.solve_mu(fresh, op, 0.5 * phi0) == mus[0.5]


@_PUBLISHED
def test_published_solves_take_one_exact_phi_value(experiment, variant):
    # once Phi(0) is known, each published solve computes one exact Phi
    # value, the certificate of its surrogate root; with one Arnoldi pass the
    # 2D eps = 0.1 surrogate root, 107422.61, missed the certified 107419.28
    # and the solve took two
    cfg, op, build, hd, phi0 = _published(experiment, variant)
    evals = [ctl.solve_problem(build(cfg, op, f * phi0), op, hd=hd).phi_evals
             for f in cfg.eps_fractions]
    assert evals == [1] * len(cfg.eps_fractions)


@pytest.mark.parametrize("experiment, size", [
    ("example1d", 250), ("example1d", 1000), ("example1d", 4000), ("example2d", 1 / 15)],
    ids=["1d-n_el250", "1d-n_el1000", "1d-n_el4000", "2d-h15"])
def test_solve_mu_certifies_with_one_exact_phi_value_across_meshes(experiment, size):
    # the certificate is solve_mu's one route to a root short of the exact
    # fallback: on finer and coarser meshes than the published ones, each
    # surrogate root passes it, so one exact Phi value follows Phi(0)
    if experiment == "example1d":
        cfg = load_config(experiment, n_el=size)
        op, build = cli.build_operator_1d(cfg), cli.build_problem_1d
    else:
        cfg = load_config(experiment, h=size)
        op, build = cli.build_operator_2d(cfg), cli.build_problem_2d
    hd = ctl.homogenize(build(cfg, op, 1.0), op)
    phi0 = ctl.phi(hd, op, 0.0)
    for frac in (0.1, 0.5, 0.9):
        n = len(hd._phi_values)
        mu = ctl.solve_mu(hd, op, frac * phi0)
        assert len(hd._phi_values) - n == 1, frac
        assert abs(hd._phi_values[mu] - frac * phi0) <= 1e-8 * phi0, frac


@pytest.mark.parametrize("experiment, size", [
    ("example1d", 250), ("example1d", 1000), ("example1d", 4000), ("example2d", 1 / 15)],
    ids=["1d-n_el250", "1d-n_el1000", "1d-n_el4000", "2d-h15"])
def test_solve_problem_takes_the_same_fits_and_factors_across_meshes(
        experiment, size, monkeypatch):
    # the solve's work does not grow with the mesh: from an empty fit memo,
    # homogenize and Phi(0) make 1 fit (the problem fit) and 11 LUs in 1D or
    # 12 in 2D; the eps = 0.5 Phi(0) solve makes 2 fits (S_2T and the
    # resolvent at its root) and 14 to 16 LUs; the eps = 0.9 Phi(0) solve 1
    # fit and 8 LUs in 1D or 9 in 2D (measured on 1D n_el = 62 to 4000 and
    # 2D h = 1/15 and 1/30).  Each solve takes 1 exact Phi value
    monkeypatch.setattr(rat, "_fit_memo", OrderedDict())
    if experiment == "example1d":
        cfg = load_config(experiment, n_el=size)
        op, build = cli.build_operator_1d(cfg), cli.build_problem_1d
    else:
        cfg = load_config(experiment, h=size)
        op, build = cli.build_operator_2d(cfg), cli.build_problem_2d
    counts, evals = [], []

    def counted(f):
        fits = len(rat._fit_memo)
        with shifted_factors() as made:
            out = f()
        counts.append((len(rat._fit_memo) - fits, len(made)))
        return out
    with shifted_factors() as made:
        hd = ctl.homogenize(build(cfg, op, 1.0), op)
        phi0 = ctl.phi(hd, op, 0.0)
    counts.append((len(rat._fit_memo), len(made)))
    for frac in (0.5, 0.9):
        spec = build(cfg, op, frac * phi0)
        evals.append(counted(lambda: ctl.solve_problem(spec, op, hd=hd)).phi_evals)
    assert [fits for fits, _ in counts] == [1, 2, 1]
    caps = (11, 16, 8) if experiment == "example1d" else (12, 16, 9)
    assert all(lus <= cap for (_, lus), cap in zip(counts, caps)), counts
    assert evals == [1, 1]


def test_failed_polish_names_the_certified_root_and_the_realized_miss():
    # at 2D eps = 0.03 Phi(0) solve_mu certifies mu = 6.8e12, where the
    # control's refinement stalls and the realized miss is 4.3e4 eps; the
    # polish's first Newton step leaves MU_BRACKET_CAP.  Phi has that root,
    # so the error names the polish, not inconsistent data
    cfg, op, hd, phi0 = _example2d(1 / 30)
    spec = cli.build_problem_2d(cfg, op, 0.03 * phi0)
    root = ctl.solve_mu(hd, op, spec.eps)
    with pytest.raises(RuntimeError, match="realized-miss polish") as info:
        ctl.solve_problem(spec, op, hd=hd)
    msg = str(info.value)
    assert f"certified mu = {root!r}" in msg and "inconsistent" not in msg
    assert float(re.search(r"realized miss there is (\S+) eps", msg).group(1)) > 1
    assert "no root" in str(info.value.__cause__)


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
    # a surrogate that levels off above eps has no root within the cap; the
    # one exact value at the cap lies below eps, so the exact root find then
    # starts from mu = 1 and returns what it returns on a fresh problem
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
    monkeypatch.setattr(ctl, "_phi_surrogate", lambda hd, op: rootless)
    mu = ctl.solve_mu(hd, op62, eps)
    assert list(hd._phi_values)[1:3] == [ctl.MU_BRACKET_CAP, 1.0]
    assert mu == want


def test_solve_mu_below_phis_range_raises_after_one_exact_value():
    # on n_el = 250, Phi levels off near 0.090 Phi(0) at MU_BRACKET_CAP: below
    # that the surrogate has no root, and one exact value at the cap shows
    # that Phi has none either
    op = ops.assemble_1d(250)
    hd = ctl.homogenize(make_spec_51(op, 1.0), op)
    phi0 = ctl.phi(hd, op, 0.0)
    with pytest.raises(RuntimeError, match=r"no root of f\(mu\) .* cap = 1e\+30"):
        ctl.solve_mu(hd, op, 0.03 * phi0)
    assert list(hd._phi_values) == [0.0, ctl.MU_BRACKET_CAP]


def test_solve_mu_falls_back_when_the_certificate_misses(op62, monkeypatch):
    # a surrogate whose root sits at mu = 100, far from Phi's, fails its one
    # certificate; the exact root find then runs from mu = 1
    spec = make_spec_51(op62, 1.0)
    hd = ctl.homogenize(spec, op62)
    phi0 = ctl.phi(hd, op62, 0.0)
    eps = 0.5 * phi0
    calls = []

    def wrong(hd, op):
        calls.append(op)
        return lambda mu: (2.0 * eps / (1.0 + mu / 100.0), None)

    want = _exact_root_from_one(spec, op62, eps, 1e-8 * phi0)
    monkeypatch.setattr(ctl, "_phi_surrogate", wrong)
    mu = ctl.solve_mu(hd, op62, eps)
    assert calls == [op62]
    assert list(hd._phi_values)[:3] == [0.0, pytest.approx(100.0, rel=1e-9), 1.0]
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
    # at mu = 0 the right-hand side is psi alone: u is Psi^{-1} psi
    # whatever the final target, and the refinement stops at its first
    # iterate
    u0 = ctl.optimal_control(hd62, op62, 0.0)
    other = replace(hd62, ystar_hom=op62.function(np.ones(op62.n)))
    assert np.array_equal(ctl.optimal_control(other, op62, 0.0).values, u0.values)
    (u, _, report), (_, _, other_report) = (ctl._refine(h, 0.0, ctl._resolvent(h, 0.0))
                                            for h in (hd62, other))
    assert np.array_equal(u.values, u0.values)
    assert report == other_report and report[0] == "converged"


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
    want = rat.semigroup_apply(op62, spec.T, u)
    assert np.array_equal(snaps[1].values, want.values)


def test_trajectory_at_zero_is_u_in_a_new_array(op62):
    # e^{0 lam} = 1 fits as the constant 1 with no pole, with or without a
    # source: y(0) holds u's values and is not u's array
    u = op62.function(np.cos(op62.coords))
    f = op62.function(np.sin(op62.coords))
    for segs in ((), ((0.0, T_1D, f),)):
        spec = replace(make_spec_51(op62, 1.0), f_segments=segs)
        y = ctl.trajectory(spec, op62, u, [0.0])[0]
        assert np.array_equal(y.values, u.values) and y.values is not u.values


@pytest.mark.parametrize("T", [0.01, 1.0, 10.0])
@pytest.mark.parametrize("k", [0.01, 0.1, 0.5, 2.0, 10.0])
def test_trajectory_at_short_starts_after_a_source_breakpoint(op64, T, k):
    # y(t) at t = c + d, d = k 1e-4 max(1, c), after the source changes at
    # c = T/3: below the cut (k < 1) the segment [0, c] gives SI(d, t, 1),
    # split into two segment integrals from 0; above it, SI(d, t, 1) joins
    # the shared fit as it is.  Measured 8.6e-13 against the oracle at
    # worst; without it k = 0.01 raised FitError at every T, and
    # k = 0.1 at T = 0.01 and 1
    ds = orc.decompose(op64)
    f = op64.function(np.sin(op64.coords))
    c = T / 3
    t = c + k * 1e-4 * max(1.0, c)
    spec = replace(make_spec_51(op64, 1.0, T=T), f_segments=((0.0, c, f), (c, T, f)))
    u = op64.function(np.cos(op64.coords))
    y = ctl.trajectory(spec, op64, u, [t])[0]
    want = ds.from_eig(np.exp(t * ds.eigenvalues) * ds.to_eig(u)
                       + orc._source_eig(ds, spec.f_segments, t))
    assert ops.norm_m(op64, y.values - want.values) <= 1e-10 * ops.norm_m(op64, want)


def test_beta_window_starting_just_after_zero_matches_the_oracle(op62):
    # beta on [1e-5, T/3]: psi's SI(1e-5, T/3, 1) is split into SI(0, T/3, 1)
    # in the problem fit and SI(0, 1e-5, 1) on a fit of its own (the whole
    # problem fit raised FitError without the split).  Measured mu 1.2e-13
    # and u 3.9e-12 off the dense oracle
    spec = make_spec_51(op62, 1.0)
    w = spec.w_segments[1]
    spec = replace(spec, beta_segments=((0.0, 1e-5, 0.0), (1e-5, T_1D / 3, 1.0),
                                        (T_1D / 3, T_1D, 0.0)), w_segments=(w, w, w))
    hd = ctl.homogenize(spec, op62)
    spec = replace(spec, eps=0.5 * ctl.phi(hd, op62, 0.0))
    mu = ctl.solve_mu(hd, op62, spec.eps)
    u = ctl.optimal_control(hd, op62, mu)
    osol = orc.oracle_solve_control(spec, op62)
    assert abs(mu - osol.mu_eps) <= 1e-8 * osol.mu_eps
    assert ops.norm_m(op62, u.values - osol.u_opt.values) <= 1e-7 * ops.norm_m(op62, osol.u_opt)


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


def test_trajectory_and_cost_constant_just_after_a_later_source_starts(op64):
    # 1e-5 after [0.0055, T] starts, while [0, T/10] is active, p(t) has the
    # terms SI(t - T/10, t, 1) and SI(0, 1e-5, 1); the short one stays out of
    # their shared fit and takes the rescaled fit of SI(0, 1, 1) of its own.
    # J(0)'s Gauss rule meets the same at its node 2.3e-5 into [0.0055, 2T/3]
    ds = orc.decompose(op64)
    f = op64.function(50.0 * np.sin(op64.coords))
    segs, t = ((0.0, T_1D / 10, f), (0.0055, T_1D, f)), 0.0055 + 1e-5
    spec = replace(make_spec_51(op64, 1.0), f_segments=segs)
    y = ctl.trajectory(spec, op64, op64.function(np.zeros(op64.n)), [t])[0]
    want = ds.from_eig(orc._source_eig(ds, segs, t))
    assert ops.norm_m(op64, y.values - want.values) <= 1e-10 * ops.norm_m(op64, want)
    want = orc.oracle_cost(spec, ds, np.zeros(op64.n))
    assert abs(ctl.homogenize(spec, op64).cost_constant - want) <= 1e-10 * want


@pytest.mark.parametrize("earlier", [False, True])
def test_homogenize_with_a_short_last_source_segment(earlier, monkeypatch):
    # p(T) of the segment [T - 1e-5, T] is SI(0, 1e-5, 1), which stays out
    # of the problem fit and takes a fit of its own; its source response
    # G = SourceResponseIntegral(2T/3, T, T - 1e-5, T), beta being active on
    # [2T/3, T] too, is a component of the problem fit.  psi, ystar_hom, the
    # root and the control at it match the dense oracle.
    op = ops.assemble_1d(62)
    f = op.function(50.0 * np.sin(op.coords))
    segs = ((0.0, T_1D / 2, f),) * earlier + ((T_1D - 1e-5, T_1D, f),)
    spec = make_spec_51(op, 1.0)
    spec = replace(spec, f_segments=segs, beta_segments=spec.beta_segments[:2]
                   + ((2 * T_1D / 3, T_1D, 1.0),))
    required, _ = _counting(monkeypatch)
    hd = ctl.homogenize(spec, op)
    monkeypatch.undo()
    assert required == ["problem fit", "segment-integral fit"]
    ds = orc.decompose(op)
    ystar_hom, psi, _ = orc._homogenized_eig(spec, ds)
    for got, want in ((hd.ystar_hom, ystar_hom), (hd.psi, psi)):
        assert ops.norm_m(op, got.values - ds.from_eig(want).values) \
            <= 1e-10 * float(np.linalg.norm(want))
    spec = replace(spec, eps=0.5 * ctl.phi(hd, op, 0.0))
    mu = ctl.solve_mu(hd, op, spec.eps)
    u = ctl.optimal_control(hd, op, mu)
    osol = orc.oracle_solve_control(spec, op)
    assert ops.norm_m(op, u.values - osol.u_opt.values) <= 1e-7 * ops.norm_m(op, osol.u_opt)
    assert abs(mu - osol.mu_eps) <= 1e-8 * osol.mu_eps


def test_trajectory_just_after_a_source_breakpoint(op64):
    # 1e-5 after the source changes at c, the segment [0, c] contributes
    # SI(1e-5, c + 1e-5, 1), whose adaptive fit misses FIT_TOL; it is taken
    # as SI(0, c + 1e-5, 1) in the shared fit minus SI(0, 1e-5, 1) on the
    # rescaled ready-made fit of its own
    ds = orc.decompose(op64)
    f = op64.function(np.sin(op64.coords))
    c = T_1D / 3
    spec = replace(make_spec_51(op64, 1.0), f_segments=((0.0, c, f), (c, T_1D, f)))
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
    # J applies the Psi fit that the KKT residual (and g and the control's
    # refinement) already factored
    umin = ctl.optimal_control(hd62, op62, 0.0)
    ctl.kkt_residual(hd62, op62, umin, 0.0)
    monkeypatch.setattr(rat, "fit_rational", None)
    monkeypatch.setattr(rat, "fit_rational_shared", None)
    with shifted_factors() as made:
        assert np.isfinite(ctl.cost_j(hd62, op62, umin))
    assert not made


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_control_at_a_phi_mu_adds_no_fit_and_no_factorization(dim):
    # phi fits and factors the resolvent r_mu at 0 and solve_mu at the root
    # it certifies; the control there refines with that r_mu, and applies
    # Psi and the semigroups that g and the surrogate already fitted.  In 2D
    # the surrogate's Arnoldi has factored S_2T too, so no control adds a
    # factor.  In 1D (n = 61) the surrogate's space is the whole space and
    # runs no solve, so the first control's residual factors exactly S_2T's
    # poles, on the operator, and the next control adds none: r_mu's factors
    # wait on hd's child, where the certificate left them
    _, op, hd, phi0 = _example1d(62) if dim == "1d" else _example2d(1 / 30)
    (s2t,) = rat.fit_required([sym.expm(2 * hd.spec.T)], "semigroup fit")
    s2t = {complex(p) for p in s2t.poles}
    mu = ctl.solve_mu(hd, op, 0.5 * phi0)
    assert mu > 0
    fits, added = set(rat._fit_memo), []
    for m in (0.0, mu):
        before = set(op._solvers)
        with shifted_factors() as made:
            ctl.optimal_control(hd, op, m)
        added.append((set(op._solvers) - before, len(made)))
    assert set(rat._fit_memo) == fits
    assert added == ([(s2t, len(s2t)), (set(), 0)] if dim == "1d" else [(set(), 0)] * 2)


def test_tight_2d_polish_adds_no_fit_and_no_factorization():
    # at eps = 0.1 Phi(0) the realized-miss polish takes a second multiplier,
    # 8.5e-4 (relative) from the certified root; its control continues from
    # the first on the root's resolvent, which solve_mu fitted and factored
    # (a fit at that multiplier would add 10 factors)
    cfg, op, hd, phi0 = _example2d(1 / 30)
    spec = cli.build_problem_2d(cfg, op, 0.1 * phi0)
    root = ctl.solve_mu(hd, op, spec.eps)
    fits = set(rat._fit_memo)
    with shifted_factors() as made:
        sol = ctl.solve_problem(spec, op, hd=hd)
    assert 0 < abs(sol.mu_eps / root - 1) <= 1e-3
    assert not set(rat._fit_memo) - fits
    assert not made


def test_polish_step_out_of_the_window_raises_with_no_fit(monkeypatch):
    # every control of the polish refines on the certified root's resolvent,
    # which contracts the refinement only within |mu - root| <= _CUT root; a
    # step beyond that window raises, naming the root and the window, where
    # a fit and factors at the far multiplier were made before.  At 1D eps =
    # 0.1 Phi(0) the realized miss at the root is off eps by more than the
    # polish's tolerance, and a surrogate slope of 1e-6 sends the first step
    # to 15.5 root.  The surrogate's space (n = 61) runs no solve, so the
    # root's control factors S_2T's poles, and nothing else is factored
    cfg, op, hd, phi0 = _example1d(62)
    spec = cli.build_problem_1d(cfg, op, 0.1 * phi0)
    root = ctl.solve_mu(hd, op, spec.eps)
    (s2t,) = rat.fit_required([sym.expm(2 * hd.spec.T)], "semigroup fit")
    fits, factors = set(rat._fit_memo), set(op._solvers)
    surrogate = ctl._phi_surrogate

    def flat(hd, op):
        value = surrogate(hd, op)
        return lambda m: (value(m)[0], 1e-6)
    monkeypatch.setattr(ctl, "_phi_surrogate", flat)
    with shifted_factors() as made, \
            pytest.raises(RuntimeError, match="realized-miss polish") as info:
        ctl.solve_problem(spec, op, hd=hd)
    monkeypatch.undo()
    msg = str(info.value)
    assert f"certified mu = {root!r}" in msg
    assert f"window |mu - root| <= {ctl._CUT:g} root" in msg
    assert "leaves the window" in str(info.value.__cause__)
    assert set(rat._fit_memo) == fits
    assert set(op._solvers) - factors == {complex(p) for p in s2t.poles}
    assert len(made) == len(s2t.poles)


@pytest.mark.parametrize("frac", [0.1, 0.5])
def test_solve_applies_psi_once_per_refinement_iterate(op62, frac, monkeypatch):
    # the control returns Psi u and S_2T u of its u: the cost reads that
    # Psi u and the polish's next control (at eps = 0.1 Phi(0) there is one)
    # its first residual, so every Psi apply of a solve is the residual of a
    # new iterate, and the cost is cost_j's bit for bit
    hd = ctl.homogenize(make_spec_51(op62, 1.0), op62)
    spec = make_spec_51(op62, frac * ctl.phi(hd, op62, 0.0))
    psi_fit = hd.problem_fit[-2]
    counts = {"psi": 0, "residual": 0, "refine": 0}
    apply, residual, refine = ctl.apply_rational, ctl._stationarity_residual, ctl._refine

    def counted(name, f):
        def wrapped(*args):
            counts[name] += 1
            return f(*args)
        return wrapped

    def counted_apply(op, r, v):
        counts["psi"] += r is psi_fit
        return apply(op, r, v)

    def counted_residual(hd, mu, u, products=None):
        counts["residual"] += products is None      # the residuals that apply Psi
        return residual(hd, mu, u, products)
    monkeypatch.setattr(ctl, "apply_rational", counted_apply)
    monkeypatch.setattr(ctl, "_stationarity_residual", counted_residual)
    monkeypatch.setattr(ctl, "_refine", counted("refine", refine))
    sol = ctl.solve_problem(spec, op62, hd=hd)
    monkeypatch.undo()
    assert counts["refine"] == (2 if frac == 0.1 else 1)
    assert counts["psi"] == counts["residual"]
    assert sol.cost == ctl.cost_j(hd, op62, sol.u_opt)


def test_continued_control_from_products_is_bit_identical():
    # within _CUT of the certified root, the control refined from the root's
    # on the root's resolvent meets the stationarity target 1e-10 without a
    # fit, and then lies within 1e-10 / alpha of optimal_control's (Psi >=
    # alpha; measured 1.0e-8 relative).  Its first residual, from the root
    # control's products, is the one the refinement would apply them for
    cfg, op, hd, phi0 = _example1d(62)
    root = ctl.solve_mu(hd, op, 0.5 * phi0)
    r_root = ctl._resolvent(hd, root)
    previous = ctl._refine(hd, root, r_root)
    m = 1.05 * root
    fits = set(rat._fit_memo)
    u, kept, report = ctl._refine(hd, m, r_root, *previous[:2])
    assert not set(rat._fit_memo) - fits
    assert report[0] == "converged"
    assert ctl.kkt_residual(hd, op, u, m) <= 1e-10
    exact = ctl.optimal_control(hd, op, m)
    assert ops.norm_m(op, u.values - exact.values) <= 1e-10 / cfg.alpha
    again, applied, report_again = ctl._refine(hd, m, r_root, previous[0])
    assert np.array_equal(u.values, again.values)
    assert report_again == report
    assert all(np.array_equal(a, b) for a, b in zip(kept, applied))


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


def _counting(monkeypatch):
    """Record the `what` of every fit control requires and the shift of every
    shifted solve of the rational applies, in order."""
    fit, solve, required, shifts = ctl.fit_required, rat.solve_shifted, [], []

    def counting_fit(gs, what):
        required.append(what)
        return fit(gs, what)

    def counting_solve(op, z, v):
        shifts.append(z)
        return solve(op, z, v)
    monkeypatch.setattr(ctl, "fit_required", counting_fit)
    monkeypatch.setattr(rat, "solve_shifted", counting_solve)
    return required, shifts


@pytest.mark.parametrize("case", ["one", "three", "inside"])
def test_homogenize_with_a_source_is_one_fit(case, monkeypatch):
    # psi's segment integral and source responses and p(T)'s segment
    # integrals are components of the problem fit: homogenize requires that
    # one fit and applies it in two passes, psi and p(T), each one shifted
    # solve per stored pole, and Phi(0) adds no factor (13, 11 and 12 LUs
    # for the three layouts, where a fit per source term took 4, 7 and 6
    # fits and 26, 49 and 41 LUs)
    op = ops.assemble_1d(62)
    spec = replace(make_spec_51(op, 1.0), f_segments=_source_cases(op)[case])
    required, shifts = _counting(monkeypatch)
    with shifted_factors() as made:
        hd = ctl.homogenize(spec, op)
        monkeypatch.undo()
        ctl.phi(hd, op, 0.0)
    poles = list(hd.problem_fit[0].poles)
    assert required == ["problem fit"]
    assert shifts == poles * 2
    assert len(made) == len(poles)


@pytest.mark.parametrize("case", ["one", "three", "inside"])
def test_trajectory_with_a_source_is_one_fit_per_time(case, monkeypatch):
    # y(t) = S_t u + p(t): e^{t lam} and the segment integrals of the
    # segments active at t (at 0.8 T all three of "three", the last one up
    # to t only) are one shared fit per time, applied with one shifted solve
    # per stored pole, and y(t) matches the dense oracle (measured 9.3e-14
    # to 1.9e-13; 21, 27 and 23 LUs, where a semigroup fit and a
    # source-integral fit per time took 39, 43 and 42)
    op = ops.assemble_1d(62)
    segs, times = _source_cases(op)[case], [T_1D / 4, T_1D / 2, 0.8 * T_1D]
    spec = replace(make_spec_51(op, 1.0), f_segments=segs)
    u = op.function(np.cos(op.coords))
    fits = [rat.fit_required([sym.expm(t), *(sym.segment_integral(t - min(d, t), t - c, 1)
                                              for c, d, _ in segs if c < t)], "state fit")
            for t in times]
    required, shifts = _counting(monkeypatch)
    got = ctl.trajectory(spec, op, u, times)
    monkeypatch.undo()
    assert required == [f"state fit at t={t}" for t in times]
    assert shifts == [p for f in fits for p in f[0].poles]
    ds = orc.decompose(op)
    for t, y in zip(times, got):
        want = ds.from_eig(np.exp(t * ds.eigenvalues) * ds.to_eig(u)
                           + orc._source_eig(ds, segs, t))
        assert ops.norm_m(op, y.values - want.values) <= 1e-10 * ops.norm_m(op, want)


def test_trajectory_without_a_source_is_the_semigroup(op62, hd62):
    # a lone e^{t lam} takes the frozen table's fit: y(t) is semigroup_apply's
    # bit for bit, also before a source starts
    u = ctl.optimal_control(hd62, op62, 0.0)
    f = op62.function(np.sin(op62.coords))
    for segs, t in (((), 0.3 * T_1D), (((0.5 * T_1D, T_1D, f),), 0.4 * T_1D)):
        spec = replace(make_spec_51(op62, 1.0), f_segments=segs)
        y = ctl.trajectory(spec, op62, u, [t])[0]
        assert np.array_equal(y.values, rat.semigroup_apply(op62, t, u).values)


@pytest.mark.parametrize("frac", [0.5, 1.5])
def test_solve_problem_reads_the_problem_fit_from_hd(op62, frac, monkeypatch):
    # homogenize keeps its problem fit on hd, and every later reader (g,
    # S_T ystar_hom, r_0, Psi u, the cost and the final state) takes it
    # from there: a solve looks no problem fit up, at mu > 0 or mu = 0
    hd = ctl.homogenize(make_spec_51(op62, 1.0), op62)
    spec = make_spec_51(op62, frac * ctl.phi(hd, op62, 0.0))
    required, _ = _counting(monkeypatch)
    keys = []
    for module in (rat, ctl):
        def recording(gs, what, _fit=module.fit_required):
            keys.extend(g.key for g in gs)
            return _fit(gs, what)
        monkeypatch.setattr(module, "fit_required", recording)
    sol = ctl.solve_problem(spec, op62, hd=hd)
    monkeypatch.undo()
    assert (sol.mu_eps == 0.0) == (frac > 1)
    assert "problem fit" not in required
    assert (sym.const(1.0) / hd.big_psi_symbol).key not in keys


def _equal_source_segments(n_seg, eps=1.0):
    """The 1D reference problem on n_el = 62 with f = 50 sin x on n_seg
    equal segments of [0, T], with alternating signs and growing amplitude."""
    op = ops.assemble_1d(62)
    f = 50.0 * np.sin(op.coords)
    segs = tuple((T_1D * j / n_seg, T_1D * (j + 1) / n_seg,
                  op.function((-1) ** j * (1.0 + j / n_seg) * f)) for j in range(n_seg))
    return replace(make_spec_51(op, eps), f_segments=segs), op


@pytest.mark.parametrize("n_seg", [10, 20])
def test_many_source_segments_match_the_oracle(n_seg):
    # homogenize factors the problem fit's poles only (15 and 17, where a
    # fit per source term took 133 and 255 LUs), and the root and the
    # control at it match the dense oracle (measured u 2.4e-12 and 5.9e-12,
    # mu 4.8e-12 and 5.3e-12 relative)
    spec, op = _equal_source_segments(n_seg)
    with shifted_factors() as made:
        hd = ctl.homogenize(spec, op)
    assert len(made) == len(hd.problem_fit[0].poles)
    spec = replace(spec, eps=0.5 * ctl.phi(hd, op, 0.0))
    mu = ctl.solve_mu(hd, op, spec.eps)
    u = ctl.optimal_control(hd, op, mu)
    osol = orc.oracle_solve_control(spec, op)
    assert ops.norm_m(op, u.values - osol.u_opt.values) <= 1e-7 * ops.norm_m(op, osol.u_opt)
    assert abs(mu - osol.mu_eps) <= 1e-8 * osol.mu_eps


def test_solve_problem_with_ten_source_segments_matches_the_oracle():
    # J(0)'s first Gauss node after a source breakpoint, 1.99e-5 into the
    # panel, needs SI(1.99e-5, 1.02e-3, 1), whose adaptive fit misses
    # FIT_TOL; the split into two segment integrals from 0 serves it
    spec, op = _equal_source_segments(10)
    hd = ctl.homogenize(spec, op)
    spec = replace(spec, eps=0.5 * ctl.phi(hd, op, 0.0))
    sol = ctl.solve_problem(spec, op, hd=hd)
    osol = orc.oracle_solve_control(spec, op)
    assert abs(sol.cost - osol.cost) <= 1e-7 * abs(osol.cost)


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
    psi_u = rat.apply_rational(op62, hd.problem_fit[-2], u).values
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


@pytest.mark.parametrize("case", ["one", "three", "inside"])
def test_final_state_with_source_is_s_t_u_plus_the_source_response(op62, case):
    # y(T) = S_T u + p(T) = S_T u + (ystar - ystar_hom) with the problem
    # fit's S_T, and the final miss is its distance to ystar; it agrees with
    # the trajectory's one fit of e^{T lam} and p(T)'s segment integrals to
    # the fits'
    # accuracy (measured 1.0e-12 to 1.5e-12 relative)
    spec = replace(make_spec_51(op62, 1.0), f_segments=_source_cases(op62)[case])
    hd = ctl.homogenize(spec, op62)
    spec = replace(spec, eps=0.5 * ctl.phi(hd, op62, 0.0))
    sol = ctl.solve_problem(spec, op62, hd=hd)
    st_u = rat.apply_rational(op62, hd.problem_fit[-3], sol.u_opt).values
    want = st_u + (spec.ystar.values - hd.ystar_hom.values)
    assert ops.norm_m(op62, sol.y_opt.values - want) <= 1e-14 * ops.norm_m(op62, want)
    miss = ops.norm_m(op62, sol.y_opt.values - spec.ystar.values)
    assert abs(sol.final_miss - miss) <= 1e-12 * miss
    y_t = ctl.trajectory(spec, op62, sol.u_opt, [spec.T])[0].values
    assert ops.norm_m(op62, sol.y_opt.values - y_t) <= 1e-10 * ops.norm_m(op62, y_t)


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
    # kkt comes from the refinement's report at every mu, mu = 0 (frac > 1)
    # included, and is the KKT residual of the returned u bit for bit
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
