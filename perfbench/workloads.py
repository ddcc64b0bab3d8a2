"""The three benchmark workloads, built from the published defaults in config.py.

Each workload has a set-up (operator assembly with its spectral enclosure,
data projection, homogenization) and a timed phase made of operations:
one `solve_problem` at one eps, or one sensitivity row.
`run_workload` executes the timed phase, times every operation, and checks
every output with `gate.py`; an operation that raises or fails its check
counts as failed.

Inputs come from the seed.  Seed 0 gives exactly the published parameters.
Any other seed multiplies every datum (final target y*, trajectory target
w) by a factor in [1/2, 2].  Every operator function the solver fits
depends only on T, alpha, beta and mu, which stay published, so the work
per run hardly depends on the seed while the data differ.  The problem is
linear in its data, so the reference values scale exactly: Phi by the
factor, mu_eps not at all.  The sensitivity directions stay the published
ones (config seed 0): for some other directions the mu-stability check of
gate.py is ill-posed.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from parabolic_control import cli
from parabolic_control import control as ctl
from parabolic_control import sensitivity as sens
from parabolic_control.config import load_config

import gate

WORKLOADS = ("solve1d", "solve2d", "sensitivity")


@dataclasses.dataclass(frozen=True)
class Inputs:
    seed: int
    scale: float            # factor on every datum


def inputs_from_seed(seed):
    if seed == 0:
        return Inputs(seed=0, scale=1.0)
    rng = np.random.default_rng(seed)
    return Inputs(seed=seed, scale=float(2.0 ** rng.uniform(-1.0, 1.0)))


def scaled(spec, c):
    """The problem with y* and every w snapshot multiplied by c."""
    if c == 1.0:
        return spec
    return dataclasses.replace(
        spec, ystar=spec.ystar.op.function(c * spec.ystar.values),
        w_segments=tuple(w.op.function(c * w.values) for w in spec.w_segments))


class Recorder:
    """Times each operation and counts attempts and failures."""

    def __init__(self):
        self.op_seconds = []
        self.failures = {}          # label -> reasons
        self.attempted = 0
        self.feas_gap_max = 0.0
        self.kkt_max = 0.0

    def run(self, label, fn):
        """Time fn(); return its result, or None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception as exc:  # a raising operation is a failed operation
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.op_seconds.append(time.perf_counter() - t0)

    def fail(self, label, reason):
        self.failures.setdefault(label, []).append(reason)

    def check(self, label, problems):
        if problems:
            self.fail(label, "; ".join(problems))


# ---------------------------------------------------------------------------
# set-up: from the child's start to a homogenized problem
# ---------------------------------------------------------------------------

def setup(name, inputs):
    c = inputs.scale
    if name == "solve1d":
        cases = []
        for variant in ("isotropic", "discontinuous"):
            cfg = load_config("example1d", variant=variant)
            op = cli.build_operator_1d(cfg)
            hd = ctl.homogenize(scaled(cli.build_problem_1d(cfg, op, 1.0), c), op)
            cases.append((variant, cfg, op, hd, cli.build_problem_1d))
        return cases
    if name == "solve2d":
        cfg = load_config("example2d")
        op = cli.build_operator_2d(cfg)
        hd = ctl.homogenize(scaled(cli.build_problem_2d(cfg, op, 1.0), c), op)
        return [("lshape", cfg, op, hd, cli.build_problem_2d)]
    if name != "sensitivity":
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    cfg = load_config(name)
    op = cli.build_operator_1d(cfg)
    hd = ctl.homogenize(scaled(cli.build_problem_1d(cfg, op, 1.0), c), op)
    return cfg, op, hd


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

def run_workload(name, inputs, state, ref, rec):
    """Run the timed phase of one workload; failures go to rec."""
    if name in ("solve1d", "solve2d"):
        _solves(inputs, state, ref, rec)
    else:
        _sensitivity(inputs, state, ref, rec)


def _solves(inputs, cases, ref, rec):
    c = inputs.scale
    for case, cfg, op, hd, build in cases:
        phi0 = ctl.phi(hd, op, 0.0)
        base = ref[case]
        phi0_bad = gate.phi0_problems(phi0, c, base)
        for frac, case_ref in zip(cfg.eps_fractions, base["solves"]):
            label = f"{case} eps={frac}"
            eps = frac * phi0
            spec = scaled(build(cfg, op, eps), c)
            sol = rec.run(label, lambda: ctl.solve_problem(spec, op, hd=hd))
            if sol is None:
                continue
            gap = abs(sol.final_miss - eps) / phi0
            rec.feas_gap_max = max(rec.feas_gap_max, gap)
            rec.kkt_max = max(rec.kkt_max, sol.kkt)
            rec.check(label, phi0_bad + gate.solve_problems(
                sol, eps, phi0, frac, case_ref))


def _sensitivity(inputs, state, ref, rec):
    cfg, op, hd = state
    c = inputs.scale
    phi0 = ctl.phi(hd, op, 0.0)
    eps = 0.5 * phi0
    spec = scaled(cli.build_problem_1d(cfg, op, eps), c)
    mu0 = ctl.solve_mu(hd, op, eps)
    u0 = ctl.optimal_control(hd, op, mu0)
    base_bad = gate.phi0_problems(phi0, c, ref) + gate.mu_problems(
        mu0, ref["mu_eps"], ref["mu_tol"])
    for channel in cfg.channels:
        rows, labels = [], []
        for nu in cfg.nu_list:
            label = f"{channel} nu={nu:g}"
            # one nu per call: rows are independent, so this is the sweep's
            # own work, timed row by row
            out = rec.run(label, lambda: sens.sensitivity_sweep(
                spec, op, channel, (nu,), seed=cfg.seed, base=(u0, mu0)))
            if out is None:
                continue
            row = out[0]
            if not row["ok"]:
                rec.fail(label, f"row not ok: {row.get('error', '')}")
                continue
            rec.check(label, base_bad)
            rows.append(row)
            labels.append(label)
        for label in labels:
            rec.check(label, gate.sweep_problems(rows))
