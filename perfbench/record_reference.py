"""Record reference.json: the outputs the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every workload at seed 0 (the published parameters) in this process
and writes Phi(0) and each solve's mu_eps with the tolerance that moves
Phi by gate.FEAS_TOL * Phi(0) there.  The
committed file was recorded at the commit that added the benchmark; record
it again only when a change to the published problems is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from parabolic_control import control as ctl  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

STEP = 1e-4    # relative step of the central difference of Phi at mu_eps


def mu_tolerance(hd, op, mu, phi0):
    slope = (ctl.phi(hd, op, mu * (1 + STEP)) - ctl.phi(hd, op, mu * (1 - STEP))) \
        / (2 * mu * STEP)
    return gate.FEAS_TOL * phi0 / abs(slope)


def record():
    inputs = workloads.inputs_from_seed(0)
    ref = {}
    for name in ("solve1d", "solve2d"):
        ref[name] = {}
        for case, cfg, op, hd, build in workloads.setup(name, inputs):
            phi0 = ctl.phi(hd, op, 0.0)
            solves = [{"frac": frac, "mu_eps": ctl.solve_problem(
                build(cfg, op, frac * phi0), op, hd=hd).mu_eps}
                for frac in cfg.eps_fractions]
            for s in solves:
                s["mu_tol"] = mu_tolerance(hd, op, s["mu_eps"], phi0)
            ref[name][case] = {"phi0": phi0, "solves": solves}

    cfg, op, hd = workloads.setup("sensitivity", inputs)
    phi0 = ctl.phi(hd, op, 0.0)
    mu0 = ctl.solve_mu(hd, op, 0.5 * phi0)
    ref["sensitivity"] = {"phi0": phi0, "mu_eps": mu0,
                          "mu_tol": mu_tolerance(hd, op, mu0, phi0)}
    return ref


if __name__ == "__main__":
    with open(HERE / "reference.json", "w") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
