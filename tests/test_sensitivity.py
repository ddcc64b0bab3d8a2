import numpy as np
import pytest

from parabolic_control import control as ctl
from parabolic_control import operators as ops
from parabolic_control import oracle as orc
from parabolic_control import sensitivity as sens

from conftest import make_spec_51


def test_zero_perturbation_is_identity(op62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    p = sens.PerturbationSpec(0.0, "ystar", seed=3)
    spec2, op2 = sens.perturb(spec, op62, p)
    assert spec2 is spec and op2 is op62


def test_perturbation_spec_validation():
    with pytest.raises(ValueError):
        sens.PerturbationSpec(1.5, "alpha")
    with pytest.raises(ValueError):
        sens.PerturbationSpec(0.1, "bogus")


def test_alpha_channel_admissible(op62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    for nu in (1e-2, 1e-3):
        spec2, _ = sens.perturb(spec, op62, sens.PerturbationSpec(nu, "alpha"))
        d_alpha = spec2.alpha - spec.alpha
        assert 0 < abs(d_alpha) <= nu
        assert spec2.alpha > 0


def test_beta_channel_stays_in_cone(op62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    for seed in range(5):
        spec2, _ = sens.perturb(spec, op62,
                                sens.PerturbationSpec(0.5, "beta", seed=seed))
        assert all(b >= 0 for (_, _, b) in spec2.beta_segments)


def test_w_and_f_channels_have_unit_direction_norm(op62, phi0_62):
    spec = make_spec_51(op62, 0.5 * phi0_62)
    nu = 1e-2
    spec_w, _ = sens.perturb(spec, op62, sens.PerturbationSpec(nu, "w", seed=1))
    total = sum((b - a) * ops.norm_m(op62, w2.values - w.values) ** 2
                for (a, b, _), w2, w in zip(spec.beta_segments,
                                            spec_w.w_segments, spec.w_segments))
    assert np.sqrt(total) == pytest.approx(nu, rel=1e-12)
    spec_f, _ = sens.perturb(spec, op62, sens.PerturbationSpec(nu, "f", seed=1))
    total = sum((b - a) * ops.norm_m(op62, f.values) ** 2
                for (a, b, f) in spec_f.f_segments)
    assert np.sqrt(total) == pytest.approx(nu, rel=1e-12)


def test_operator_channel_weyl_bound(op64):
    # Rayleigh quotients shift by at most nu (Weyl, dense oracle)
    nu = 1e-3
    spec = make_spec_51(op64, 0.5)
    _, op_d = sens.perturb(spec, op64, sens.PerturbationSpec(nu, "operator", seed=2))
    lam0 = orc.decompose(op64).eigenvalues
    lam1 = orc.decompose(op_d).eigenvalues
    assert np.max(np.abs(lam1 - lam0)) <= nu * (1 + 1e-8)


def test_sweep_rows_and_ratio_stability(op62, hd62, phi0_62):
    eps = 0.5 * phi0_62
    spec = make_spec_51(op62, eps)
    mu0 = ctl.solve_mu(hd62, op62, eps)
    u0 = ctl.optimal_control(hd62, op62, mu0)
    rows = sens.sensitivity_sweep(spec, op62, "ystar", (1e-2, 1e-3),
                                  seed=0, base=(u0, mu0))
    assert all(r["ok"] for r in rows)
    ratios = [r["ratio"] for r in rows]
    assert max(ratios) / min(ratios) <= 5.0
    for r in rows:
        assert abs(r["mu_eps_delta"] - r["mu_eps"]) <= 100.0 * r["nu"]


def test_orthogonal_ystar_direction_same_bound(op62, hd62, phi0_62):
    # a direction orthogonal to ystar drifts with a comparable constant
    eps = 0.5 * phi0_62
    spec = make_spec_51(op62, eps)
    mu0 = ctl.solve_mu(hd62, op62, eps)
    u0 = ctl.optimal_control(hd62, op62, mu0)
    nu = 1e-3
    rng = np.random.default_rng(7)
    d = rng.standard_normal(op62.n)
    ys = spec.ystar.values
    d -= ys * ops.inner_m(op62, d, ys) / ops.inner_m(op62, ys, ys)
    d /= ops.norm_m(op62, d)
    spec_o = ctl.ProblemSpec(T=spec.T, alpha=spec.alpha,
                             beta_segments=spec.beta_segments,
                             w_segments=spec.w_segments,
                             ystar=op62.function(ys + nu * d), eps=eps)
    hd_o = ctl.homogenize(spec_o, op62)
    mu_o = ctl.solve_mu(hd_o, op62, eps)
    u_o = ctl.optimal_control(hd_o, op62, mu_o)
    drift_orth = ops.norm_m(op62, u_o.values - u0.values) / nu
    rows = sens.sensitivity_sweep(spec, op62, "ystar", (nu,), seed=0,
                                  base=(u0, mu0))
    assert drift_orth <= 5.0 * rows[0]["ratio"]


def test_drift_monotone_at_leading_order(op62, hd62, phi0_62):
    eps = 0.5 * phi0_62
    spec = make_spec_51(op62, eps)
    mu0 = ctl.solve_mu(hd62, op62, eps)
    u0 = ctl.optimal_control(hd62, op62, mu0)
    rows = sens.sensitivity_sweep(spec, op62, "w", (1e-2, 1e-3), seed=0,
                                  base=(u0, mu0))
    d_hi, d_lo = rows[0]["drift"], rows[1]["drift"]
    assert d_lo <= d_hi * (1e-3 / 1e-2) * 5.0


def test_failed_row_is_flagged(op62, phi0_62, monkeypatch):
    spec = make_spec_51(op62, 0.5 * phi0_62)

    def boom(*a, **k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(sens, "homogenize", boom)
    rows = sens.sensitivity_sweep(spec, op62, "ystar", (1e-2,), seed=0,
                                  base=(op62.function(np.zeros(op62.n)), 0.1))
    assert rows[0]["ok"] is False and "synthetic" in rows[0]["error"]


def test_zero_nu_row_has_exactly_zero_drift(op62, hd62, phi0_62):
    eps = 0.5 * phi0_62
    spec = make_spec_51(op62, eps)
    mu0 = ctl.solve_mu(hd62, op62, eps)
    u0 = ctl.optimal_control(hd62, op62, mu0)
    rows = sens.sensitivity_sweep(spec, op62, "w", (0.0,), seed=0,
                                  base=(u0, mu0))
    assert rows[0]["ok"]
    assert rows[0]["drift"] == 0.0
    assert rows[0]["ratio"] == 0.0


def test_drift_extrapolates_to_zero(op62, hd62, phi0_62):
    eps = 0.5 * phi0_62
    spec = make_spec_51(op62, eps)
    mu0 = ctl.solve_mu(hd62, op62, eps)
    u0 = ctl.optimal_control(hd62, op62, mu0)
    rows = sens.sensitivity_sweep(spec, op62, "ystar", (1e-2, 1e-3), seed=0,
                                  base=(u0, mu0))
    d1, d2 = rows[0]["drift"], rows[1]["drift"]
    slope = (d1 - d2) / (1e-2 - 1e-3)
    intercept = d2 - slope * 1e-3
    assert abs(intercept) <= 0.05 * d1


def test_operator_channel_phi0_drift_bounded(op62, hd62, phi0_62):
    nu = 1e-3
    spec = make_spec_51(op62, 0.5 * phi0_62)
    _, op_d = sens.perturb(spec, op62, sens.PerturbationSpec(nu, "operator", seed=4))
    hd_d = ctl.homogenize(spec, op_d)
    phi0_d = ctl.phi(hd_d, op_d, 0.0)
    c = abs(phi0_d - phi0_62) / nu
    print(f"\noperator channel: |dPhi(0)| = {c:.4f} * nu at nu={nu}")
    assert np.isfinite(c)
    assert abs(phi0_d - phi0_62) <= c * nu * (1 + 1e-12)
    assert c <= 10.0
