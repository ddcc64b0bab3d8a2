"""Correctness gate: every check an operation's output must pass.

Thresholds are no looser than the acceptance criteria in
tests/test_acceptance.py.  Reference values (reference.json) were recorded
at seed 0 by record_reference.py; for another seed, Phi scales with the
data factor and mu_eps does not change.  Each function returns a list of
problems, empty when the output passes.
"""

from __future__ import annotations

import math

FEAS_TOL = 1e-6        # |miss - eps| / Phi(0), acceptance criteria 2 and 9
KKT_TOL = 1e-6         # acceptance criteria 4 and 9
PHI_REL_TOL = 1e-8     # Phi(0) against its reference, relative (criterion 5)
SPREAD_MAX = 5.0       # drift-ratio and mu-stability spreads (criterion 8)


def phi0_problems(phi0, c, ref):
    expected = c * ref["phi0"]
    if not abs(phi0 - expected) <= PHI_REL_TOL * expected:
        return [f"Phi(0) = {phi0!r}, reference {expected!r}"]
    return []


def mu_problems(mu, mu_ref, mu_tol):
    """mu_tol moves Phi by FEAS_TOL * Phi(0) at the reference root."""
    if not abs(mu - mu_ref) <= mu_tol:
        return [f"mu_eps = {mu!r}, reference {mu_ref!r} +- {mu_tol:.3g}"]
    return []


def solve_problems(sol, eps, phi0, frac, ref):
    out = []
    if frac != ref["frac"]:
        out.append(f"eps fraction {frac} does not match reference {ref['frac']}")
    gap = abs(sol.final_miss - eps) / phi0
    if not gap <= FEAS_TOL:
        out.append(f"|miss - eps| / Phi(0) = {gap:.3e} > {FEAS_TOL:g}")
    if not sol.kkt <= KKT_TOL:
        out.append(f"KKT residual {sol.kkt:.3e} > {KKT_TOL:g}")
    return out + mu_problems(sol.mu_eps, ref["mu_eps"], ref["mu_tol"])


def sweep_problems(rows):
    """Acceptance-8 spreads of one channel's rows (those that ran).

    The mu-stability spread needs a direction whose first-order effect on
    mu_eps is not zero, as the published directions have in every channel;
    for a random one it can vanish (direction seed 101, channel ystar), and
    then |mu_eps_delta - mu_eps| is the root find's noise, about 1e-10.
    """
    if len(rows) < 2:
        return []
    out = []
    ratios = [r["ratio"] for r in rows]
    if not (min(ratios) > 0 and max(ratios) / min(ratios) <= SPREAD_MAX):
        out.append(f"drift-ratio spread over {ratios} exceeds {SPREAD_MAX}")
    cprime = [abs(r["mu_eps_delta"] - r["mu_eps"]) / r["nu"] for r in rows]
    spread = max(cprime) / max(min(cprime), 1e-300)
    if not (math.isfinite(spread) and spread <= SPREAD_MAX):
        out.append(f"mu-stability spread {spread:.3g} exceeds {SPREAD_MAX}")
    return out
