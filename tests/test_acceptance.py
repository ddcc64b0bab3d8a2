"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` for the line-by-line
report.  Criteria with stated runtime budgets are timed around the gated
work on shared fixtures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from parabolic_control import control as ctl
from parabolic_control import operators as ops
from parabolic_control import oracle as orc
from parabolic_control import rational as rat
from parabolic_control import sensitivity as sens
from parabolic_control import symbols as sym
from parabolic_control.config import load_config
from parabolic_control.cli import build_problem_2d

from conftest import make_spec_51, psi_without_source

REFERENCE_PHI0 = 1.0374

ACCEPTANCE_LINES = []


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)


# ---------------------------------------------------------------------------
# shared expensive solves
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def iso(op62, hd62, phi0_62):
    t0 = time.perf_counter()
    sols = {}
    for frac in (0.2, 0.5, 0.9):
        spec = make_spec_51(op62, frac * phi0_62)
        sols[frac] = (spec, ctl.solve_problem(spec, op62, hd=hd62))
    return {"op": op62, "hd": hd62, "phi0": phi0_62, "sols": sols,
            "wall": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def disc():
    op = ops.assemble_1d(62, a=-0.8, gamma=2.2)
    hd = ctl.homogenize(make_spec_51(op, 1.0), op)
    phi0 = ctl.phi(hd, op, 0.0)
    sols = {}
    for frac in (0.2, 0.5, 0.9):
        spec = make_spec_51(op, frac * phi0)
        sols[frac] = (spec, ctl.solve_problem(spec, op, hd=hd))
    return {"op": op, "hd": hd, "phi0": phi0, "sols": sols}


@pytest.fixture(scope="module")
def twod():
    cfg = load_config("example2d")
    t0 = time.perf_counter()
    op = ops.assemble_2d_lshape(cfg.h)
    hd = ctl.homogenize(build_problem_2d(cfg, op, 1.0), op)
    t1 = time.perf_counter()
    phi0 = ctl.phi(hd, op, 0.0)
    phi0_seconds = time.perf_counter() - t1
    sols = {}
    for frac in cfg.eps_fractions:
        spec = build_problem_2d(cfg, op, frac * phi0)
        sols[frac] = (spec, ctl.solve_problem(spec, op, hd=hd))
    return {"op": op, "hd": hd, "phi0": phi0, "sols": sols,
            "phi0_seconds": phi0_seconds, "wall": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_golden_number():
    t0 = time.perf_counter()
    op = ops.assemble_1d(62)
    hd = ctl.homogenize(make_spec_51(op, 1.0), op)
    phi0 = ctl.phi(hd, op, 0.0)
    wall = time.perf_counter() - t0
    rel = abs(phi0 - REFERENCE_PHI0) / REFERENCE_PHI0
    ok = rel <= 0.02 and wall < 5.0
    _report(1, ok, f"Phi(0) = {phi0:.6f} vs {REFERENCE_PHI0} "
                   f"(rel {rel:.2%}), {wall:.2f}s")
    assert rel <= 0.02
    assert wall < 5.0


def test_criterion_2_constraint_activity(iso):
    gaps = {f: abs(sol.final_miss - spec.eps) / iso["phi0"]
            for f, (spec, sol) in iso["sols"].items()}
    ok = all(g <= 1e-6 for g in gaps.values()) and iso["wall"] < 30.0
    _report(2, ok, "|miss-eps|/Phi(0) = " +
            ", ".join(f"{f}: {g:.2e}" for f, g in sorted(gaps.items())) +
            f"; {iso['wall']:.1f}s")
    for g in gaps.values():
        assert g <= 1e-6
    assert iso["wall"] < 30.0


def test_criterion_3_oracle_equivalence(op64, hd64, phi0_64):
    t0 = time.perf_counter()
    spec = make_spec_51(op64, 0.5 * phi0_64)
    sol = ctl.solve_problem(spec, op64, hd=hd64)
    osol = orc.oracle_solve_control(spec, op64)
    wall = time.perf_counter() - t0
    u_err = ops.norm_m(op64, sol.u_opt.values - osol.u_opt.values) \
        / ops.norm_m(op64, osol.u_opt)
    mu_err = abs(sol.mu_eps - osol.mu_eps) / osol.mu_eps
    ok = u_err <= 1e-7 and mu_err <= 1e-8 and wall < 10.0
    _report(3, ok, f"u rel err {u_err:.2e}, mu rel err {mu_err:.2e}, "
                   f"{wall:.1f}s")
    assert u_err <= 1e-7
    assert mu_err <= 1e-8
    assert wall < 10.0


def test_criterion_4_kkt_stationarity(iso, disc, twod):
    worst = {}
    for name, bundle in (("1d-iso", iso), ("1d-disc", disc), ("2d", twod)):
        worst[name] = max(sol.kkt for _, sol in bundle["sols"].values())
    ok = all(v <= 1e-6 for v in worst.values())
    _report(4, ok, ", ".join(f"{k}: {v:.2e}" for k, v in worst.items()))
    for v in worst.values():
        assert v <= 1e-6


def test_criterion_5_phi_law_suite(op62, hd62, phi0_62):
    mus = np.logspace(-7, 12, 20)
    vals = [ctl.phi(hd62, op62, m) for m in mus]
    strictly_decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    umin = ctl.optimal_control(hd62, op62, 0.0)
    spec = make_spec_51(op62, 0.5)
    y_min = ctl.trajectory(spec, op62, umin, [spec.T])[0]
    miss = ops.norm_m(op62, y_min.values - spec.ystar.values)
    rel = abs(miss - phi0_62) / phi0_62
    tail = ctl.phi(hd62, op62, 1e12) / phi0_62
    ok = strictly_decreasing and rel <= 1e-8 and tail <= 1e-3
    _report(5, ok, f"monotone={strictly_decreasing}, "
                   f"|Phi(0)-||y_min-y*||| rel {rel:.2e}, "
                   f"Phi(1e12)/Phi(0) = {tail:.2e}")
    assert strictly_decreasing
    assert rel <= 1e-8
    assert tail <= 1e-3


def test_criterion_6_rational_rates():
    errs = []
    for d in (4, 6, 8, 10, 12):
        _, rep = rat.fit_rational(sym.expm(1.0), d, 1e-300)
        errs.append(rep.max_error)
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    geo = all(r <= 0.5 for r in ratios)
    ns = np.arange(8, 25, 2)
    grid = rat._VALID
    cerrs = [float(np.max(np.abs(rat.contour_exp(int(n), 1.0)(grid)
                                 - np.exp(grid)))) for n in ns]
    slope = np.polyfit(ns, np.log(cerrs), 1)[0]
    slope_ok = slope <= -np.log(3.2) * 0.8
    ok = geo and slope_ok
    _report(6, ok, f"fit ratios max {max(ratios):.3f} (<=0.5), contour slope "
                   f"{slope:.3f} vs -0.8*log(3.2) = {-np.log(3.2)*0.8:.3f}")
    assert geo
    assert slope_ok


def test_criterion_7_trivial_branches(op62, hd62, phi0_62):
    spec_easy = make_spec_51(op62, 1.5 * phi0_62)
    sol = ctl.solve_problem(spec_easy, op62, hd=hd62)
    umin = ctl.optimal_control(hd62, op62, 0.0)
    branch_a = sol.mu_eps == 0.0 and np.array_equal(sol.u_opt.values,
                                                    umin.values)
    z = op62.function(np.zeros(op62.n))
    spec_zero = ctl.ProblemSpec(
        T=spec_easy.T, alpha=spec_easy.alpha,
        beta_segments=spec_easy.beta_segments,
        w_segments=(z, z, z), ystar=z, eps=0.5)
    sol_zero = ctl.solve_problem(spec_zero, op62)
    branch_b = np.all(sol_zero.u_opt.values == 0.0)
    spec = make_spec_51(op62, 0.5)
    branch_c = np.array_equal(hd62.ystar_hom.values, spec.ystar.values) \
        and np.array_equal(hd62.psi.values, psi_without_source(spec, op62))
    ok = branch_a and branch_b and branch_c
    _report(7, ok, f"eps>=Phi(0) branch {branch_a}, zero-data {branch_b}, "
                   f"homogenization-identity {branch_c}")
    assert branch_a and branch_b and branch_c


def test_criterion_8_sensitivity(op62, hd62, phi0_62):
    t0 = time.perf_counter()
    eps = 0.5 * phi0_62
    spec = make_spec_51(op62, eps)
    mu0 = ctl.solve_mu(hd62, op62, eps)
    u0 = ctl.optimal_control(hd62, op62, mu0)
    nu_list = (1e-2, 1e-3, 1e-4)
    spreads, cmu = {}, {}
    for channel in sens.CHANNELS:
        rows = sens.sensitivity_sweep(spec, op62, channel, nu_list,
                                      seed=0, base=(u0, mu0))
        assert all(r["ok"] for r in rows), channel
        ratios = [r["ratio"] for r in rows]
        spreads[channel] = max(ratios) / min(ratios)
        cprime = [abs(r["mu_eps_delta"] - r["mu_eps"]) / r["nu"] for r in rows]
        cmu[channel] = max(cprime) / max(min(cprime), 1e-300)
    wall = time.perf_counter() - t0
    ok = all(s <= 5.0 for s in spreads.values()) \
        and all(np.isfinite(c) and c <= 5.0 for c in cmu.values()) \
        and wall < 120.0
    _report(8, ok, "drift-ratio spreads " +
            ", ".join(f"{c}: {s:.2f}" for c, s in sorted(spreads.items())) +
            f"; mu-stability spreads <= {max(cmu.values()):.2f}; {wall:.0f}s")
    for c, s in spreads.items():
        assert s <= 5.0, c
    for c, v in cmu.items():
        assert np.isfinite(v) and v <= 5.0, c
    assert wall < 120.0


def test_criterion_9_2d_completion(twod):
    gaps = {f: abs(sol.final_miss - spec.eps) / twod["phi0"]
            for f, (spec, sol) in twod["sols"].items()}
    kkts = {f: sol.kkt for f, (_, sol) in twod["sols"].items()}
    ok = all(g <= 1e-6 for g in gaps.values()) \
        and all(k <= 1e-6 for k in kkts.values()) and twod["wall"] < 60.0
    _report(9, ok, f"Phi(0) wall {twod['phi0_seconds']:.3f}s "
                   f"(published reference 0.9828s); feasibility "
            + ", ".join(f"{f}: {g:.1e}" for f, g in sorted(gaps.items()))
            + "; kkt " + ", ".join(f"{f}: {k:.1e}" for f, k in sorted(kkts.items()))
            + f"; total {twod['wall']:.0f}s")
    for g in gaps.values():
        assert g <= 1e-6
    for k in kkts.values():
        assert k <= 1e-6
    assert twod["wall"] < 60.0


def _phi0_smooth_1d(n_el):
    op = ops.assemble_1d(n_el)
    w = ops.project_to_mesh(op, ops.GaussianSum(((20.0, 0.9),)))
    ystar = ops.project_to_mesh(op, ops.GaussianSum(((20.0, 2.2),)))
    T = 0.01
    segs = ((0.0, T / 3, 0.0), (T / 3, 2 * T / 3, 1.0), (2 * T / 3, T, 0.0))
    spec = ctl.ProblemSpec(T=T, alpha=1e-4, beta_segments=segs,
                           w_segments=(w, w, w), ystar=ystar, eps=1.0)
    hd = ctl.homogenize(spec, op)
    return ctl.phi(hd, op, 0.0)


def _phi0_smooth_2d(h):
    cfg = load_config("example2d")
    op = ops.assemble_2d_lshape(h)
    w = ops.project_to_mesh(op, ops.GaussianSum(((20.0, (-0.5, -0.5)),)))
    ystar = ops.project_to_mesh(op, ops.GaussianSum(
        ((20.0, (0.5, 0.5)), (20.0, (0.6, 0.1)), (30.0, (0.8, 0.4)))))
    segs = ((0.0, cfg.T / 3, 0.0), (cfg.T / 3, 2 * cfg.T / 3, 1.0),
            (2 * cfg.T / 3, cfg.T, 0.0))
    spec = ctl.ProblemSpec(T=cfg.T, alpha=cfg.alpha, beta_segments=segs,
                           w_segments=(w, w, w), ystar=ystar, eps=1.0)
    hd = ctl.homogenize(spec, op)
    return ctl.phi(hd, op, 0.0)


def test_criterion_10_mesh_refinement():
    fams = (31, 62, 124, 248)
    vals = [_phi0_smooth_1d(n) for n in fams]
    hs = [np.pi / n for n in fams]
    diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
    monotone_1d = all(b < a for a, b in zip(diffs, diffs[1:]))
    orders = [np.log(diffs[i] / diffs[i + 1]) / np.log(hs[i] / hs[i + 1])
              for i in range(len(diffs) - 1)]
    order_ok = all(o >= 1.5 for o in orders)
    vals2 = [_phi0_smooth_2d(h) for h in (0.1, 0.05, 0.025)]
    d2 = [abs(a - b) for a, b in zip(vals2, vals2[1:])]
    monotone_2d = d2[1] < d2[0]
    ok = monotone_1d and order_ok and monotone_2d
    _report(10, ok, f"1D diffs {['%.2e' % d for d in diffs]}, orders "
                    f"{['%.2f' % o for o in orders]}; 2D diffs "
                    f"{['%.2e' % d for d in d2]}")
    assert monotone_1d
    assert order_ok
    assert monotone_2d


def test_2d_tight_solve_reports_pcg_miss(twod, monkeypatch):
    # at eps = 0.1 Phi(0), mu ~ 1e5 amplifies the fit error of the realized
    # operators, and the control's refinement stalls above its 1e-10
    # target; the solution says so, with the KKT residual of its u
    op, hd = twod["op"], twod["hd"]
    spec, sol = twod["sols"][0.1]
    assert sol.pcg_stop == "stalled"
    assert 1e-10 < sol.kkt <= 1e-6
    assert sol.kkt == ctl.kkt_residual(hd, op, sol.u_opt, sol.mu_eps)
    # each refinement run of that solve applies at most four residuals, the
    # first iterate's and three steps' (PCG applied the stationarity
    # operator five times); the polish's second control, continued from the
    # first on the root's resolvent (a _refine given a u), applies at most
    # three, its first residual formed from the first's products
    runs = []     # [continued, residuals] per refinement run
    residual, refine = ctl._stationarity_residual, ctl._refine

    def counted_residual(hd, mu, u, products=None):
        runs[-1][1] += products is None
        return residual(hd, mu, u, products)

    def counted_refine(*args):
        runs.append([len(args) > 3, 0])
        return refine(*args)
    monkeypatch.setattr(ctl, "_stationarity_residual", counted_residual)
    monkeypatch.setattr(ctl, "_refine", counted_refine)
    assert ctl.solve_problem(spec, op, hd=hd).mu_eps == sol.mu_eps
    assert runs and max(count for _, count in runs) <= 4
    continued = [count for is_continued, count in runs if is_continued]
    assert continued and max(continued) <= 3


@pytest.mark.parametrize("case,frac", [
    ("iso", 0.2), ("iso", 0.5), ("iso", 0.9),
    ("disc", 0.2), ("disc", 0.5), ("disc", 0.9),
    pytest.param("twod", 0.1, marks=pytest.mark.xfail(strict=True, reason=(
        "the realized route: the polish solves the stationarity system on the"
        " fitted S_2T, whose constant term moves the 2D eps = 0.1 mu 8.5e-4 off"
        " the root of Phi; the identity misses by 7.5e-4"))),
    ("twod", 0.5), ("twod", 0.9),
])
def test_envelope_identity(request, case, frac):
    # mu multiplies the constraint 1/2 ||S_T u + p(T) - y*||^2 <= 1/2 eps^2,
    # so the optimal cost has dJ*/deps = -mu eps (Lagrange-multiplier
    # sensitivity); central differences of the returned cost, with step
    # 1e-4 eps, check the solution without an oracle
    data = request.getfixturevalue(case)
    op, hd = data["op"], data["hd"]
    spec, sol = data["sols"][frac]
    step = 1e-4 * spec.eps
    up, down = (ctl.solve_problem(replace(spec, eps=spec.eps + s), op, hd=hd).cost
                for s in (step, -step))
    lagrange = sol.mu_eps * spec.eps
    assert abs((up - down) / (2 * step) + lagrange) <= 1e-6 * lagrange


def test_2d_relaxed_constraint_tracks_trajectory_target(twod):
    # the eps = 0.9 Phi(0) run spends its budget near the trajectory target:
    # its mid-time state holds a larger mass fraction inside the l1 ball
    # than the tightly constrained eps = 0.1 Phi(0) run
    op = twod["op"]
    ball = ops.project_to_mesh(op, ops.BallIndicator2D((-0.5, -0.5), 0.2))
    fractions = {}
    for frac in (0.1, 0.9):
        spec, sol = twod["sols"][frac]
        y_half = ctl.trajectory(spec, op, sol.u_opt, [spec.T / 2])[0]
        mass = np.sum(op.M * np.abs(y_half.values))
        inside = np.sum(op.M * ball.values * np.abs(y_half.values))
        fractions[frac] = inside / mass
    assert fractions[0.9] > fractions[0.1]
