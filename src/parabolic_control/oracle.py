"""Dense spectral reference implementation.

Solves the same control problem through an explicit generalized symmetric
eigendecomposition K v = theta M v (so A has eigenvalues -theta in the
M-orthonormal eigenbasis), evaluating every operator function exactly on
the eigenvalues.  Time integrals take their own route: the source term of
psi by a composite Gauss-Legendre rule fine enough for every mode, and J
by a GAUSS_POINTS-point Gauss rule on every panel between the source
breakpoints, so J stays an independent check of the production quadratic
form.  Trusted for dimensions up to MAX_DENSE_N, which covers the 2D
L-shape at h = 1/30 (n = 2,581, whose eigendecomposition takes a few
seconds), and used by the tests to validate the rational-calculus
production path; never the production path itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import symbols as sym
from .control import ControlSolution
from .operators import DimensionError

MAX_DENSE_N = 3000
GAUSS_POINTS = 8

_gauss_x, _gauss_w = np.polynomial.legendre.leggauss(GAUSS_POINTS)
_psi_x, _psi_w = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class DenseSpectral:
    """Eigenvalues of A ascending (all < 0 for Dirichlet) and M-orthonormal
    eigenvectors as columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    op: object

    def to_eig(self, v):
        vals = v.values if hasattr(v, "values") else np.asarray(v)
        return self.vectors.T @ (self.op.M * vals)

    def from_eig(self, coef):
        return self.op.function(self.vectors @ coef)


def decompose(op):
    if op.n > MAX_DENSE_N:
        raise DimensionError(
            f"dense oracle limited to n <= {MAX_DENSE_N}, got {op.n}")
    K = op.K.toarray()
    theta, V = scipy.linalg.eigh(K, np.diag(op.M))
    lam = -theta[::-1]
    V = V[:, ::-1]
    return DenseSpectral(eigenvalues=lam, vectors=V, op=op)


def oracle_apply(ds, g, v):
    """g(A) v evaluated exactly on the eigenpairs."""
    with np.errstate(divide="ignore", invalid="ignore"):
        gvals = np.asarray(g(ds.eigenvalues), dtype=float)
    if not np.all(np.isfinite(gvals)):
        raise ValueError("symbol not evaluable at an eigenvalue")
    return ds.from_eig(gvals * ds.to_eig(v))


def _segint_vals(lam, a, b, scale=1):
    return np.asarray(sym.segment_integral(a, b, scale)(lam))


def _source_eig(ds, f_segments, t):
    lam = ds.eigenvalues
    out = np.zeros(len(lam))
    if t <= 0:
        return out
    for (a, b, fvec) in f_segments:
        if a >= t:
            continue
        out = out + _segint_vals(lam, t - min(b, t), t - a) * ds.to_eig(fvec)
    return out


def _panels(a, b, f_segments):
    """[a, b] cut at the source breakpoints inside it: p(t) is smooth on
    each piece."""
    cuts = sorted({a, b, *(t for c, d, _ in f_segments for t in (c, d) if a < t < b)})
    return list(zip(cuts, cuts[1:]))


def _source_response_eig(ds, f_segments, a, b):
    """int_a^b S_t p(t) dt, modes exact, for the source response p.

    A composite 16-point Gauss-Legendre rule on pieces of every panel no
    longer than 1 / max |lambda|, over which each mode's integrand, a sum of
    exponentials of rate at most 2 |lambda|, varies by less than e^2: exact
    to rounding.
    """
    lam = ds.eigenvalues
    out = np.zeros(len(lam))
    if not f_segments:
        return out
    for lo, hi in _panels(a, b, f_segments):
        edges = np.linspace(lo, hi, 1 + math.ceil((hi - lo) * np.max(np.abs(lam))))
        for left, right in zip(edges, edges[1:]):
            half, midp = 0.5 * (right - left), 0.5 * (right + left)
            for xg, wg in zip(_psi_x, _psi_w):
                t = midp + half * xg
                out = out + wg * half * np.exp(t * lam) * _source_eig(ds, f_segments, t)
    return out


def oracle_cost(spec, ds, u_hat):
    """J of the eigen-coefficients u_hat: the GAUSS_POINTS-point Gauss rule
    in time on every panel between the source breakpoints of each beta
    segment, the modes exact."""
    lam = ds.eigenvalues
    cost = 0.5 * spec.alpha * float(np.sum(u_hat**2))
    for (a, b, beta), w in zip(spec.beta_segments, spec.w_segments):
        if beta == 0.0:
            continue
        w_eig = ds.to_eig(w)
        for lo, hi in _panels(a, b, spec.f_segments):
            half, midp = 0.5 * (hi - lo), 0.5 * (hi + lo)
            acc = 0.0
            for xg, wg in zip(_gauss_x, _gauss_w):
                t = midp + half * xg
                y_t = np.exp(t * lam) * u_hat + _source_eig(ds, spec.f_segments, t)
                acc += wg * float(np.sum((y_t - w_eig) ** 2))
            cost += 0.5 * beta * half * acc
    return cost


def oracle_solve_control(spec, op, ds=None):
    """End-to-end dense solve of the control problem (bisection for mu)."""
    if ds is None:
        ds = decompose(op)
    lam = ds.eigenvalues
    T, alpha, eps = spec.T, spec.alpha, spec.eps

    ystar_hom = ds.to_eig(spec.ystar) - _source_eig(ds, spec.f_segments, T)
    psi, big_psi = np.zeros(len(lam)), np.full(len(lam), alpha)
    for (a, b, beta), w in zip(spec.beta_segments, spec.w_segments):
        if beta != 0.0:
            psi = psi + beta * (_segint_vals(lam, a, b, 1) * ds.to_eig(w)
                                - _source_response_eig(ds, spec.f_segments, a, b))
            big_psi = big_psi + beta * _segint_vals(lam, a, b, 2)

    e_t = np.exp(T * lam)
    e_2t = np.exp(2 * T * lam)

    def phi_exact(mu):
        x = (mu * e_2t * ystar_hom + e_t * psi) / (mu * e_2t + big_psi)
        return float(np.linalg.norm(ystar_hom - x))

    phi0 = phi_exact(0.0)
    if eps >= phi0:
        mu = 0.0
    else:
        hi = 1.0
        while phi_exact(hi) >= eps:
            hi *= 10.0
            if hi > 1e30:
                raise RuntimeError("oracle bracket expansion failed")
        lo = 0.0
        while (hi - lo) > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if phi_exact(mid) >= eps:
                lo = mid
            else:
                hi = mid
        mu = 0.5 * (lo + hi)

    u_hat = (mu * e_t * ystar_hom + psi) / (mu * e_2t + big_psi)
    y_hat = e_t * u_hat + _source_eig(ds, spec.f_segments, T)
    miss = float(np.linalg.norm(y_hat - ds.to_eig(spec.ystar)))

    cost = oracle_cost(spec, ds, u_hat)

    grad = big_psi * u_hat - psi + mu * (e_2t * u_hat - e_t * ystar_hom)
    kkt = float(np.linalg.norm(grad)) / max(1.0, float(np.linalg.norm(psi)))

    return ControlSolution(
        mu_eps=mu,
        u_opt=ds.from_eig(u_hat),
        y_opt=ds.from_eig(y_hat),
        cost=cost,
        kkt=kkt,
        final_miss=miss,
        phi0=phi0,
    )
