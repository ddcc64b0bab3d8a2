"""Command-line entry point.

Verbs: example1d, example2d, phi-curve, convergence, sensitivity,
oracle-check.  Each reads its built-in defaults (the published problem
parameters), optionally overridden by --config (INI, see config.py) in
the keys the verb reads, and writes CSV artifacts plus a run_meta.txt
sidecar (those keys echoed, wall times) into --out.  CSV content is
byte-deterministic for a fixed config and seed; timings live only in the
sidecar.  Exit code 0 on success.  Exit code 1 when a sensitivity row
failed: the verb still writes every CSV and run_meta.txt.  Exit code 2 on
any other failure (an unknown key or flag included).  On either failure
one machine-readable JSON line goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import control as ctl
from . import operators as ops
from . import oracle as orc
from . import rational as rat
from . import sensitivity as sens
from . import symbols as sym
from .config import VERBS, echo_config, load_config


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
    """beta = 1 on [beta_lo T, beta_hi T] and 0 elsewhere; w on every segment."""
    T = cfg.T
    lo, hi = cfg.beta_lo * T, cfg.beta_hi * T
    segments = tuple(seg for seg in ((0.0, lo, 0.0), (lo, hi, 1.0), (hi, T, 0.0))
                     if seg[0] < seg[1])
    return ctl.ProblemSpec(T=T, alpha=cfg.alpha, beta_segments=segments,
                           w_segments=(w,) * len(segments), ystar=ystar, eps=eps)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class RowsFailed(Exception):
    """Raised by a verb after it has written its CSVs when some of its rows
    failed; main writes run_meta.txt with the verb's lines, then exits 1."""

    def __init__(self, failed, total, lines):
        super().__init__(f"{failed} of {total} rows failed")
        self.lines = lines


def _write_meta(out, cfg, timings, extra):
    with open(out / "run_meta.txt", "w") as fh:
        fh.write(f"experiment = {cfg.experiment}\n" + echo_config(cfg))
        fh.writelines(line + "\n" for line in extra)
        fh.writelines(f"time_{name}_s = {seconds:.4f}\n" for name, seconds in timings)


def _phi_curve_rows(hd, op, cfg):
    """(mu, Phi(mu), monotone_ok) at the configured log-spaced mu, and Phi(0).

    The values are read from the Ritz surrogate (control._phi_surrogate), at
    no fit and no factorization beyond Phi(0) and the surrogate's space.  It
    is monotone by construction, so monotone_ok is 1 on every row; the
    column stays for the published CSV layout.
    """
    mus = np.logspace(np.log10(cfg.mu_min), np.log10(cfg.mu_max),
                      cfg.phi_curve_points)
    phi0 = ctl.phi(hd, op, 0.0)
    surrogate = ctl._phi_surrogate(hd, op)
    rows, prev = [], None
    for m in mus:
        v = surrogate(m)[0]
        rows.append((float(m), v, int(prev is None or v <= prev + 1e-9 * phi0)))
        prev = v
    return rows, phi0


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------

@contextmanager
def _timed(timings, name):
    """Append (name, wall seconds of the block) to timings."""
    t0 = time.perf_counter()
    yield
    timings.append((name, time.perf_counter() - t0))


def _setup(cfg, timings, build_operator=build_operator_1d,
           build_problem=build_problem_1d):
    """The operator, the homogenized problem and Phi(0), timed as assembly
    and phi0: the start of every verb but convergence."""
    with _timed(timings, "assembly"):
        op = build_operator(cfg)
    hd = ctl.homogenize(build_problem(cfg, op, 1.0), op)
    with _timed(timings, "phi0"):
        phi0 = ctl.phi(hd, op, 0.0)
    return op, hd, phi0


def _solve_eps(cfg, op, hd, phi0, build_problem, timings, out, write, columns):
    """One solve per eps fraction of Phi(0), then summary.csv, whose extra
    columns write(i, spec, sol, y_half) returns after writing the files of
    solve i (y_half: the state at T/2).  Returns run_meta's phi_evals lines."""
    summary, evals = [], []
    for i, frac in enumerate(cfg.eps_fractions):
        eps = frac * phi0
        spec = build_problem(cfg, op, eps)
        with _timed(timings, f"solve_eps{i}"):
            sol = ctl.solve_problem(spec, op, hd=hd)
        evals.append(f"phi_evals_eps{i} = {sol.phi_evals}")
        y_half = ctl.trajectory(spec, op, sol.u_opt, [spec.T / 2])[0]
        summary.append((frac, eps, sol.mu_eps, sol.cost, sol.kkt, sol.final_miss,
                        sol.final_miss - eps, *write(i, spec, sol, y_half)))
    _write_csv(out / "summary.csv",
               ["eps_fraction", "eps", "mu_eps", "cost", "kkt_residual",
                "final_miss", "feasibility_gap", *columns],
               summary)
    return evals


def cmd_example1d(cfg, out, timings):
    op, hd, phi0 = _setup(cfg, timings)
    umin = ctl.optimal_control(hd, op, 0.0)
    umin_n = ops.norm_m(op, umin)

    def write(i, spec, sol, y_half):
        _write_csv(out / f"solution_eps{i}.csv",
                   ["x", "u_opt", "y_half", "w", "y_final", "ystar"],
                   zip(op.coords, sol.u_opt.values, y_half.values,
                       spec.w_segments[0].values, sol.y_opt.values, spec.ystar.values))
        return (ops.norm_m(op, sol.u_opt.values - umin.values) / max(umin_n, 1e-300),)

    evals = _solve_eps(cfg, op, hd, phi0, build_problem_1d, timings, out, write,
                       ["u_vs_umin_rel"])
    with _timed(timings, "phi_curve"):
        rows, _ = _phi_curve_rows(hd, op, cfg)
    _write_csv(out / "phi_curve.csv", ["mu", "phi", "monotone_ok"], rows)
    return [f"phi0 = {phi0!r}", f"n = {op.n}", *evals]


def cmd_example2d(cfg, out, timings):
    op, hd, phi0 = _setup(cfg, timings, build_operator_2d, build_problem_2d)
    ops.dump_mesh(op, out / "mesh.txt")

    def write(i, spec, sol, y_half):
        for j, snap in enumerate((sol.u_opt, y_half, sol.y_opt)):
            _write_csv(out / f"snapshot_eps{i}_t{j}.csv", ["x", "y", "value"],
                       ((p[0], p[1], v) for p, v in zip(op.coords, snap.values)))
        return ()

    evals = _solve_eps(cfg, op, hd, phi0, build_problem_2d, timings, out, write, [])
    return [f"phi0 = {phi0!r}", f"n = {op.n}", *evals]


def cmd_phi_curve(cfg, out, timings):
    op, hd, phi0 = _setup(cfg, timings)
    with _timed(timings, "phi_curve"):
        rows, _ = _phi_curve_rows(hd, op, cfg)
    _write_csv(out / "phi_curve.csv", ["mu", "phi", "monotone_ok"], rows)
    return [f"phi0 = {phi0!r}", f"samples = {len(rows)}",
            f"non_monotone_flagged = {sum(1 for r in rows if r[2] == 0)}"]


def cmd_convergence(cfg, out, timings):
    T, alpha = cfg.T, cfg.alpha
    lo, hi = cfg.beta_lo * T, cfg.beta_hi * T
    big_psi = sym.const(alpha) + sym.segment_integral(lo, hi, 2)
    quotient = (sym.const(1.0) * sym.expm(2 * T)) / \
        (sym.const(1.0) * sym.expm(2 * T) + big_psi)

    rows_a = []
    with _timed(timings, "fit_degree"):
        for name, g in (("exp", sym.expm(1.0)), ("quotient", quotient)):
            for d in range(4, 25, 2):
                fit, rep = rat.fit_rational(g, d, 1e-300)
                rows_a.append((name, d, rep.degree, rep.max_error,
                               rep.norm_estimate, rep.tol))
    _write_csv(out / "fit_degree.csv",
               ["symbol", "degree_requested", "degree", "error", "norm", "tol"],
               rows_a)

    rows_b = []
    lam_grid = rat._VALID
    with _timed(timings, "contour_rate"):
        for n in range(8, 25, 2):
            r = rat.contour_exp(n, 1.0)
            err = float(np.max(np.abs(r(lam_grid) - np.exp(lam_grid))))
            rows_b.append((n, err))
    _write_csv(out / "contour_rate.csv", ["n", "sup_error"], rows_b)

    def problems():
        """(case, h, op, spec) along each mesh family."""
        for case in ("1d-indicator", "1d-smooth"):
            for n_el in (31, 62, 124, 248):
                op = ops.assemble_1d(n_el)
                if case == "1d-smooth":
                    w = ops.project_to_mesh(op, ops.GaussianSum(((20.0, 0.9),)))
                    ystar = ops.project_to_mesh(op, ops.GaussianSum(((20.0, 2.2),)))
                    spec = _problem(cfg, op, w, ystar, 1.0)
                else:
                    spec = build_problem_1d(cfg, op, 1.0)
                yield case, float(np.pi / n_el), op, spec
        cfg2d = load_config("example2d", alpha=cfg.alpha, beta_lo=cfg.beta_lo,
                            beta_hi=cfg.beta_hi)
        for h in (0.1, 0.05, 0.025):
            op = ops.assemble_2d_lshape(h)
            w = ops.project_to_mesh(op, ops.GaussianSum(((20.0, (-0.5, -0.5)),)))
            ystar = ops.project_to_mesh(op, ops.GaussianSum(
                ((20.0, (0.5, 0.5)), (20.0, (0.6, 0.1)), (30.0, (0.8, 0.4)))))
            yield "2d-smooth", h, op, _problem(cfg2d, op, w, ystar, 1.0)

    rows_c, prev = [], {}
    with _timed(timings, "phi0_mesh"):
        for case, h, op, spec in problems():
            phi0 = ctl.phi(ctl.homogenize(spec, op), op, 0.0)
            diff = abs(phi0 - prev[case]) if case in prev else float("nan")
            rows_c.append((case, h, op.n, phi0, diff))
            prev[case] = phi0
    _write_csv(out / "phi0_mesh.csv", ["case", "h", "n", "phi0", "diff_prev"],
               rows_c)
    return []


def cmd_sensitivity(cfg, out, timings):
    op, hd, phi0 = _setup(cfg, timings)
    eps = 0.5 * phi0
    spec = build_problem_1d(cfg, op, eps)
    with _timed(timings, "base_solve"):
        mu0 = ctl.solve_mu(hd, op, eps)
        u0 = ctl.optimal_control(hd, op, mu0)
    with _timed(timings, "sweeps"):
        all_rows = [sens.sensitivity_sweep(spec, op, c, cfg.nu_list, seed=cfg.seed,
                                           base=(u0, mu0)) for c in cfg.channels]
    for channel, rows in zip(cfg.channels, all_rows):
        _write_csv(out / f"sensitivity_{channel}.csv",
                   ["channel", "nu", "drift", "ratio", "mu_eps", "mu_eps_delta"],
                   ((r["channel"], r["nu"], r["drift"], r["ratio"],
                     r["mu_eps"], r["mu_eps_delta"]) for r in rows))
    failed = sum(not r["ok"] for rows in all_rows for r in rows)
    lines = [f"phi0 = {phi0!r}", f"eps = {eps!r}", f"rows_failed = {failed}",
             f"factors_live = {ops.live_factors(op)}"]
    if failed:
        raise RowsFailed(failed, sum(map(len, all_rows)), lines)
    return lines


def cmd_oracle_check(cfg, out, timings):
    op, hd, phi0 = _setup(cfg, timings)
    spec = build_problem_1d(cfg, op, 0.5 * phi0)
    with _timed(timings, "rational_path"):
        sol = ctl.solve_problem(spec, op, hd=hd)
    with _timed(timings, "oracle_path"):
        osol = orc.oracle_solve_control(spec, op)
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
    return [f"phi0 = {phi0!r}"]


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
    for name, verb in VERBS.items():
        _, help_text = _COMMANDS[name]
        sp = subs.add_parser(name, help=help_text)
        sp.add_argument("--config", type=str, default=None,
                        help="INI config file overriding built-in defaults")
        sp.add_argument("--out", type=str, default=None,
                        help="output directory (default: ./out)")
        if "seed" in verb.keys:
            sp.add_argument("--seed", type=int, default=None, help="random seed")
        if name == "example1d":
            sp.add_argument("--variant", type=str, default=None,
                            choices=("isotropic", "discontinuous"))
    args, unknown = parser.parse_known_args(argv)
    try:
        if unknown:
            raise ValueError(f"unrecognized arguments for {args.experiment}: "
                             f"{' '.join(unknown)}")
        cfg = load_config(args.experiment, path=args.config, out_dir=args.out,
                          seed=getattr(args, "seed", None),
                          variant=getattr(args, "variant", None))
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        timings = []
        try:
            _write_meta(out, cfg, timings, _COMMANDS[args.experiment][0](cfg, out, timings))
        except RowsFailed as exc:
            _write_meta(out, cfg, timings, exc.lines)
            _report(exc)
            return 1
    except Exception as exc:
        _report(exc)
        return 2
    return 0


def _report(exc):
    """The JSON line that main writes to stderr on failure."""
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
