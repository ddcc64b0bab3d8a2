"""Empirical stability of the optimal control under data perturbations.

For each admissible channel (alpha, beta, w, ystar, f, operator) a fixed
unit-norm direction is drawn from the seed, scaled by the magnitude nu and
added to the datum; the drift ||u_opt_delta - u_opt||_M measured across a
nu-sweep should stay proportional to nu (bounded drift/nu ratios), which is
the observable content of the perturbation bound ||delta u_opt|| < C nu.

Scalar channels use the canonical +1 orientation so one admissible
direction serves every nu in a sweep (the admissibility condition
alpha + delta_alpha > 0 is one-sided); beta directions are projected onto
the admissible cone (nonnegative where beta = 0) and renormalized, which
keeps the direction nu-independent.  Operator perturbations are the
bounded case: a random symmetric stiffness perturbation scaled so the
M-weighted operator norm of delta A equals nu.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .control import homogenize, optimal_control, solve_mu
from .operators import DiscreteOperator, norm_m

CHANNELS = ("alpha", "beta", "w", "ystar", "f", "operator")


@dataclass(frozen=True)
class PerturbationSpec:
    nu: float
    channel: str
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.nu < 1:
            raise ValueError("magnitude nu must lie in [0, 1)")
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}; "
                             f"expected one of {CHANNELS}")


def _unit_vectors(rng, op, count):
    """Raw standard-normal directions, one per time segment.

    They are not normalized here: callers scale them jointly so that the
    M-weighted, L2-in-time norm of the whole perturbation equals nu.
    """
    dirs = [rng.standard_normal(op.n) for _ in range(count)]
    return dirs


def perturb(spec, op, p):
    """Perturbed (ProblemSpec, DiscreteOperator); only p.channel differs."""
    rng = np.random.default_rng(p.seed)
    nu = p.nu
    if nu == 0.0:
        return spec, op
    new_spec, new_op = spec, op
    if p.channel == "alpha":
        # relative step delta_alpha = nu * alpha: admissible for every nu < 1
        # (the stability assumption is one-sided, delta_alpha < nu) and inside
        # the linear-response regime across the whole nu sweep
        new_spec = replace(spec, alpha=spec.alpha * (1.0 + nu))
    elif p.channel == "beta":
        d = rng.standard_normal(len(spec.beta_segments))
        betas = np.array([b for (_, _, b) in spec.beta_segments])
        d[betas == 0.0] = np.abs(d[betas == 0.0])  # project onto admissible cone
        d /= np.linalg.norm(d)
        segs = tuple((a, b, beta + nu * di)
                     for (a, b, beta), di in zip(spec.beta_segments, d))
        if any(b < 0 for (_, _, b) in segs):
            raise ValueError("projected beta perturbation left the cone")
        new_spec = replace(spec, beta_segments=segs)
    elif p.channel == "w":
        dirs = _unit_vectors(rng, op, len(spec.w_segments))
        lens = np.array([b - a for (a, b, _) in spec.beta_segments])
        total = np.sqrt(sum(L * np.sum(op.M * d * d)
                            for L, d in zip(lens, dirs)))
        ws = tuple(op.function(w.values + (nu / total) * d)
                   for w, d in zip(spec.w_segments, dirs))
        new_spec = replace(spec, w_segments=ws)
    elif p.channel == "ystar":
        d = rng.standard_normal(op.n)
        d /= norm_m(op, d)
        new_spec = replace(spec, ystar=op.function(spec.ystar.values + nu * d))
    elif p.channel == "f":
        segs = spec.f_segments if spec.f_segments else tuple(
            (a, b, op.function(np.zeros(op.n))) for (a, b, _) in spec.beta_segments)
        dirs = _unit_vectors(rng, op, len(segs))
        lens = np.array([b - a for (a, b, _) in segs])
        total = np.sqrt(sum(L * np.sum(op.M * d * d)
                            for L, d in zip(lens, dirs)))
        fs = tuple((a, b, op.function(f.values + (nu / total) * d))
                   for (a, b, f), d in zip(segs, dirs))
        new_spec = replace(spec, f_segments=fs)
    elif p.channel == "operator":
        new_op = _perturb_operator(op, nu, rng)
    return new_spec, new_op


def _perturb_operator(op, nu, rng):
    """A + dA with dA = -M^{-1} dK, dK symmetric, ||dA||_M = nu (bounded case)."""
    n = op.n
    B = rng.standard_normal((n, n))
    dK = 0.5 * (B + B.T)
    # M-weighted operator norm of M^{-1} dK: largest |eig| of (dK, M)
    ev = scipy.linalg.eigh(dK, np.diag(op.M), eigvals_only=True)
    dK *= nu / max(abs(ev[0]), abs(ev[-1]))
    K_new = sp.csc_matrix(op.K + sp.csc_matrix(dK))
    return DiscreteOperator(K=K_new, M=op.M.copy(), mesh=op.mesh, coords=op.coords)


def sensitivity_sweep(spec, op, channel, nu_list, seed=0, base=None):
    """Rows (nu, drift, drift/nu, mu_eps, mu_eps_delta) at fixed eps.

    base may carry a precomputed (u_opt, mu_eps) pair for the unperturbed
    problem; failed rows are flagged and the sweep continues.
    """
    if base is None:
        hd = homogenize(spec, op)
        mu0 = solve_mu(hd, op, spec.eps)
        u0 = optimal_control(hd, op, mu0)
    else:
        u0, mu0 = base
    rows = []
    for nu in nu_list:
        try:
            spec_d, op_d = perturb(spec, op, PerturbationSpec(nu, channel, seed))
            hd_d = homogenize(spec_d, op_d)
            # every row starts its root find from its own Ritz surrogate,
            # never from mu0, so the nu = 0 row runs the identical pipeline
            # and its fixed-point check is bit-exact
            mu_d = solve_mu(hd_d, op_d, spec.eps)
            u_d = optimal_control(hd_d, op_d, mu_d)
            drift = norm_m(op, u_d.values - u0.values)
            rows.append({"channel": channel, "nu": nu, "drift": drift,
                         "ratio": drift / nu if nu > 0 else 0.0,
                         "mu_eps": mu0, "mu_eps_delta": mu_d, "ok": True})
        except Exception as exc:  # keep sweeping, flag the row
            rows.append({"channel": channel, "nu": nu, "drift": float("nan"),
                         "ratio": float("nan"), "mu_eps": mu0,
                         "mu_eps_delta": float("nan"), "ok": False,
                         "error": str(exc)})
    return rows
