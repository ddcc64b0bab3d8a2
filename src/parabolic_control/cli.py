"""Command-line entry point.

Verbs: example1d, example2d, phi-curve, convergence, sensitivity,
oracle-check.  Each reads its built-in defaults (the published problem
parameters), optionally overridden by --config (INI, see config.py),
and writes CSV artifacts plus a run_meta.txt sidecar (parameters echoed,
wall times) into --out.  CSV content is byte-deterministic for a fixed
config and seed; timings live only in the sidecar.  Exit code 0 on
success; on failure one machine-readable JSON line goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import control as ctl
from . import operators as ops
from . import oracle as orc
from . import rational as rat
from . import sensitivity as sens
from . import symbols as sym
from .config import EXPERIMENTS, echo_config, load_config


def build_operator_1d(cfg):
    a = 0.0 if cfg.variant == "isotropic" else cfg.diffusion_jump
    return ops.assemble_1d(cfg.n_el, a=a, gamma=cfg.interface)


def build_problem_1d(cfg, op, eps):
    w = ops.project_to_mesh(op, ops.Indicator1D(*cfg.w_indicator))
    ystar = ops.project_to_mesh(op, ops.Indicator1D(*cfg.ystar_indicator))
    return _problem(cfg, op, w, ystar, eps)


def build_operator_2d(cfg):
    return ops.assemble_2d_lshape(cfg.h)


def build_problem_2d(cfg, op, eps):
    w = ops.project_to_mesh(op, ops.BallIndicator2D((-0.5, -0.5), 0.2))
    ystar = ops.project_to_mesh(op, ops.GaussianSum(
        ((20.0, (0.5, 0.5)), (20.0, (0.6, 0.1)), (30.0, (0.8, 0.4)))))
    return _problem(cfg, op, w, ystar, eps)


def _problem(cfg, op, w, ystar, eps):
    T = cfg.T
    lo, hi = cfg.beta_lo * T, cfg.beta_hi * T
    segments, w_segments = [], []
    if lo > 0:
        segments.append((0.0, lo, 0.0))
        w_segments.append(w)
    segments.append((lo, hi, 1.0))
    w_segments.append(w)
    if hi < T:
        segments.append((hi, T, 0.0))
        w_segments.append(w)
    return ctl.ProblemSpec(T=T, alpha=cfg.alpha, beta_segments=tuple(segments),
                           w_segments=tuple(w_segments), ystar=ystar, eps=eps)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_meta(out, cfg, timings, extra=()):
    with open(out / "run_meta.txt", "w") as fh:
        fh.write(f"experiment = {cfg.experiment}\n")
        fh.write(echo_config(cfg))
        for line in extra:
            fh.write(line + "\n")
        for name, seconds in timings:
            fh.write(f"time_{name}_s = {seconds:.4f}\n")


def _phi_curve_rows(hd, op, cfg):
    """(mu, Phi(mu), monotone_ok) at the configured log-spaced mu, and Phi(0).

    Every curve value comes from the Ritz surrogate on the problem's rational
    Krylov space (control._phi_surrogate), the one the root find and the
    polish's slope read: it costs no fit and no factorization beyond Phi(0)
    and the space, where one exact Phi per value took a resolvent fit and
    its factors.  Phi(0) is the exact value.  The surrogate is monotone by
    construction, so monotone_ok is 1 on every row; the column stays for
    the published CSV layout.
    """
    mus = np.logspace(np.log10(cfg.mu_min), np.log10(cfg.mu_max),
                      cfg.phi_curve_points)
    phi0 = ctl.phi(hd, op, 0.0)
    surrogate = ctl._phi_surrogate(hd, op)
    vals = [surrogate(m)[0] for m in mus]
    rows, prev = [], None
    for m, v in zip(mus, vals):
        ok = 1 if (prev is None or v <= prev + 1e-9 * phi0) else 0
        rows.append((float(m), v, ok))
        prev = v
    return rows, phi0


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------

def cmd_example1d(cfg, out):
    timings = []
    op = build_operator_1d(cfg)
    spec0 = build_problem_1d(cfg, op, 1.0)
    hd = ctl.homogenize(spec0, op)
    t0 = time.perf_counter()
    phi0 = ctl.phi(hd, op, 0.0)
    timings.append(("phi0", time.perf_counter() - t0))
    umin = ctl.optimal_control(hd, op, 0.0)
    umin_n = ops.norm_m(op, umin)

    summary, evals = [], []
    for i, frac in enumerate(cfg.eps_fractions):
        eps = frac * phi0
        spec = build_problem_1d(cfg, op, eps)
        t0 = time.perf_counter()
        sol = ctl.solve_problem(spec, op, hd=hd)
        timings.append((f"solve_eps{i}", time.perf_counter() - t0))
        evals.append(f"phi_evals_eps{i} = {sol.phi_evals}")
        y_half = ctl.trajectory(spec, op, sol.u_opt, [spec.T / 2])[0]
        w = spec.w_segments[0]
        du = ops.norm_m(op, sol.u_opt.values - umin.values) / max(umin_n, 1e-300)
        summary.append((frac, eps, sol.mu_eps, sol.cost, sol.kkt,
                        sol.final_miss, sol.final_miss - eps, du))
        _write_csv(out / f"solution_eps{i}.csv",
                   ["x", "u_opt", "y_half", "w", "y_final", "ystar"],
                   zip(op.coords, sol.u_opt.values, y_half.values,
                       w.values, sol.y_opt.values, spec.ystar.values))
    _write_csv(out / "summary.csv",
               ["eps_fraction", "eps", "mu_eps", "cost", "kkt_residual",
                "final_miss", "feasibility_gap", "u_vs_umin_rel"],
               summary)
    t0 = time.perf_counter()
    rows, _ = _phi_curve_rows(hd, op, cfg)
    timings.append(("phi_curve", time.perf_counter() - t0))
    _write_csv(out / "phi_curve.csv", ["mu", "phi", "monotone_ok"], rows)
    _write_meta(out, cfg, timings, [f"phi0 = {phi0!r}", f"n = {op.n}", *evals])


def cmd_example2d(cfg, out):
    timings = []
    t0 = time.perf_counter()
    op = build_operator_2d(cfg)
    timings.append(("assembly", time.perf_counter() - t0))
    ops.dump_mesh(op, out / "mesh.txt")
    spec0 = build_problem_2d(cfg, op, 1.0)
    hd = ctl.homogenize(spec0, op)
    t0 = time.perf_counter()
    phi0 = ctl.phi(hd, op, 0.0)
    timings.append(("phi0", time.perf_counter() - t0))

    summary, evals = [], []
    for i, frac in enumerate(cfg.eps_fractions):
        eps = frac * phi0
        spec = build_problem_2d(cfg, op, eps)
        t0 = time.perf_counter()
        sol = ctl.solve_problem(spec, op, hd=hd)
        timings.append((f"solve_eps{i}", time.perf_counter() - t0))
        evals.append(f"phi_evals_eps{i} = {sol.phi_evals}")
        y_half = ctl.trajectory(spec, op, sol.u_opt, [spec.T / 2])[0]
        for j, snap in enumerate((sol.u_opt, y_half, sol.y_opt)):
            _write_csv(out / f"snapshot_eps{i}_t{j}.csv", ["x", "y", "value"],
                       ((p[0], p[1], v) for p, v in zip(op.coords, snap.values)))
        summary.append((frac, eps, sol.mu_eps, sol.cost, sol.kkt,
                        sol.final_miss, sol.final_miss - eps))
    _write_csv(out / "summary.csv",
               ["eps_fraction", "eps", "mu_eps", "cost", "kkt_residual",
                "final_miss", "feasibility_gap"],
               summary)
    _write_meta(out, cfg, timings,
                [f"phi0 = {phi0!r}", f"n = {op.n}", *evals])


def cmd_phi_curve(cfg, out):
    timings = []
    op = build_operator_1d(cfg)
    hd = ctl.homogenize(build_problem_1d(cfg, op, 1.0), op)
    t0 = time.perf_counter()
    rows, phi0 = _phi_curve_rows(hd, op, cfg)
    timings.append(("phi_curve", time.perf_counter() - t0))
    _write_csv(out / "phi_curve.csv", ["mu", "phi", "monotone_ok"], rows)
    flagged = sum(1 for r in rows if r[2] == 0)
    _write_meta(out, cfg, timings,
                [f"phi0 = {phi0!r}", f"samples = {len(rows)}",
                 f"non_monotone_flagged = {flagged}"])


def cmd_convergence(cfg, out):
    timings = []
    T, alpha = cfg.T, cfg.alpha
    lo, hi = cfg.beta_lo * T, cfg.beta_hi * T
    big_psi = sym.const(alpha) + sym.segment_integral(lo, hi, 2)
    quotient = (sym.const(1.0) * sym.expm(2 * T)) / \
        (sym.const(1.0) * sym.expm(2 * T) + big_psi)

    t0 = time.perf_counter()
    rows_a = []
    for name, g in (("exp", sym.expm(1.0)), ("quotient", quotient)):
        for d in range(4, 25, 2):
            fit, rep = rat.fit_rational(g, d, 1e-300)
            rows_a.append((name, d, rep.degree, rep.max_error,
                           rep.norm_estimate, rep.tol))
    timings.append(("fit_degree", time.perf_counter() - t0))
    _write_csv(out / "fit_degree.csv",
               ["symbol", "degree_requested", "degree", "error", "norm", "tol"],
               rows_a)

    t0 = time.perf_counter()
    rows_b = []
    lam_grid = rat._VALID
    for n in range(8, 25, 2):
        r = rat.contour_exp(n, 1.0)
        err = float(np.max(np.abs(r(lam_grid) - np.exp(lam_grid))))
        rows_b.append((n, err))
    timings.append(("contour_rate", time.perf_counter() - t0))
    _write_csv(out / "contour_rate.csv", ["n", "sup_error"], rows_b)

    t0 = time.perf_counter()
    rows_c = []
    for case, fams in (("1d-indicator", (31, 62, 124, 248)),
                       ("1d-smooth", (31, 62, 124, 248))):
        prev = None
        for n_el in fams:
            op = ops.assemble_1d(n_el)
            if case == "1d-smooth":
                w = ops.project_to_mesh(op, ops.GaussianSum(((20.0, 0.9),)))
                ystar = ops.project_to_mesh(op, ops.GaussianSum(((20.0, 2.2),)))
                spec = _problem(cfg, op, w, ystar, 1.0)
            else:
                spec = build_problem_1d(cfg, op, 1.0)
            hd = ctl.homogenize(spec, op)
            phi0 = ctl.phi(hd, op, 0.0)
            h = float(np.pi / n_el)
            diff = abs(phi0 - prev[1]) if prev else float("nan")
            rows_c.append((case, h, op.n, phi0, diff))
            prev = (h, phi0)
    for case, hs in (("2d-smooth", (0.1, 0.05, 0.025)),):
        prev = None
        for hval in hs:
            op = ops.assemble_2d_lshape(hval)
            w = ops.project_to_mesh(op, ops.GaussianSum(((20.0, (-0.5, -0.5)),)))
            ystar = ops.project_to_mesh(op, ops.GaussianSum(
                ((20.0, (0.5, 0.5)), (20.0, (0.6, 0.1)), (30.0, (0.8, 0.4)))))
            cfg2 = load_config("example2d")
            spec = _problem(cfg2, op, w, ystar, 1.0)
            hd = ctl.homogenize(spec, op)
            phi0 = ctl.phi(hd, op, 0.0)
            diff = abs(phi0 - prev) if prev is not None else float("nan")
            rows_c.append((case, hval, op.n, phi0, diff))
            prev = phi0
    timings.append(("phi0_mesh", time.perf_counter() - t0))
    _write_csv(out / "phi0_mesh.csv", ["case", "h", "n", "phi0", "diff_prev"],
               rows_c)
    _write_meta(out, cfg, timings)


def cmd_sensitivity(cfg, out):
    timings = []
    op = build_operator_1d(cfg)
    hd = ctl.homogenize(build_problem_1d(cfg, op, 1.0), op)
    phi0 = ctl.phi(hd, op, 0.0)
    eps = 0.5 * phi0
    spec = build_problem_1d(cfg, op, eps)
    t0 = time.perf_counter()
    mu0 = ctl.solve_mu(hd, op, eps)
    u0 = ctl.optimal_control(hd, op, mu0)
    timings.append(("base_solve", time.perf_counter() - t0))

    t0 = time.perf_counter()
    all_rows = [sens.sensitivity_sweep(spec, op, c, cfg.nu_list, seed=cfg.seed,
                                       base=(u0, mu0)) for c in cfg.channels]
    timings.append(("sweeps", time.perf_counter() - t0))
    for channel, rows in zip(cfg.channels, all_rows):
        _write_csv(out / f"sensitivity_{channel}.csv",
                   ["channel", "nu", "drift", "ratio", "mu_eps", "mu_eps_delta"],
                   ((r["channel"], r["nu"], r["drift"], r["ratio"],
                     r["mu_eps"], r["mu_eps_delta"]) for r in rows))
    failed = sum(not r["ok"] for rows in all_rows for r in rows)
    _write_meta(out, cfg, timings, [f"phi0 = {phi0!r}", f"eps = {eps!r}",
                                    f"rows_failed = {failed}"])


def cmd_oracle_check(cfg, out):
    timings = []
    op = build_operator_1d(cfg)
    hd = ctl.homogenize(build_problem_1d(cfg, op, 1.0), op)
    phi0 = ctl.phi(hd, op, 0.0)
    eps = 0.5 * phi0
    spec = build_problem_1d(cfg, op, eps)
    t0 = time.perf_counter()
    sol = ctl.solve_problem(spec, op, hd=hd)
    timings.append(("rational_path", time.perf_counter() - t0))
    t0 = time.perf_counter()
    osol = orc.oracle_solve_control(spec, op)
    timings.append(("oracle_path", time.perf_counter() - t0))
    u_err = ops.norm_m(op, sol.u_opt.values - osol.u_opt.values) \
        / ops.norm_m(op, osol.u_opt)
    mu_err = abs(sol.mu_eps - osol.mu_eps) / max(osol.mu_eps, 1e-300)
    j_err = abs(sol.cost - osol.cost) / abs(osol.cost)
    _write_csv(out / "oracle_check.csv",
               ["n", "mu_rational", "mu_oracle", "mu_rel_err", "u_rel_err",
                "cost_rel_err", "kkt_rational"],
               [(op.n, sol.mu_eps, osol.mu_eps, mu_err, u_err, j_err, sol.kkt)])
    print(f"oracle-check n={op.n}: mu_rel_err={mu_err:.3e} "
          f"u_rel_err={u_err:.3e} cost_rel_err={j_err:.3e}")
    _write_meta(out, cfg, timings, [f"phi0 = {phi0!r}"])


_COMMANDS = {
    "example1d": (cmd_example1d, "run the 1D experiments (isotropic or discontinuous)"),
    "example2d": (cmd_example2d, "run the 2D L-shape experiment"),
    "phi-curve": (cmd_phi_curve, "sample the constraint curve Phi(mu)"),
    "convergence": (cmd_convergence, "rational-fit, contour and mesh convergence studies"),
    "sensitivity": (cmd_sensitivity, "data-perturbation sweeps over all channels"),
    "oracle-check": (cmd_oracle_check, "rational path vs dense spectral reference"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="parabolic-control",
        description="Constrained parabolic optimal control via rational "
                    "operator calculus")
    subs = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        _, help_text = _COMMANDS[name]
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("--config", type=str, default=None,
                        help="INI config file overriding built-in defaults")
        sp.add_argument("--out", type=str, default=None,
                        help="output directory (default: ./out)")
        sp.add_argument("--seed", type=int, default=None, help="random seed")
        if name == "example1d":
            sp.add_argument("--variant", type=str, default=None,
                            choices=("isotropic", "discontinuous"))
    args = parser.parse_args(argv)
    try:
        overrides = {"seed": args.seed, "out_dir": args.out}
        if getattr(args, "variant", None) is not None:
            overrides["variant"] = args.variant
        cfg = load_config(args.experiment, path=args.config, **overrides)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.experiment][0](cfg, out)
    except Exception as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
