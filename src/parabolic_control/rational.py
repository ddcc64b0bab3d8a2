"""Partial-fraction rational approximation on (-inf, 0] and operator application.

Pipeline: symbols are sampled on a fixed grid that is Chebyshev-distributed
in the Moebius-mapped coordinate m^{-1}((-inf,0]) = (-1,1] plus log-spaced
points near the origin; an adaptive barycentric (AAA-style) iteration picks
support points and weights; poles come from the generalized eigenvalue
problem of the barycentric pencil; spurious poles on the half-line are
pruned by support removal and the fit restarted with those points banned;
residues are re-fitted by Lawson-reweighted least squares in a
conjugation-closed real parameterization; the result is validated on a
denser independent grid.

Pure exponentials exp(t*lambda) bypass the adaptive fit: a frozen table of
near-best approximants of exp(x) (Caratheodory-Fejer, see
scripts/gen_exp_table.py) is rescaled by t, which preserves the sup error
on the half-line exactly.

Applying r(A)v costs one complex shifted solve per conjugate pole pair:
r(A)v = r0 v + sum_i res_i (A - pole_i)^{-1} v.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig

from ._exp_table import EXP_TABLE
from . import symbols as sym
from .operators import MeshFunction, solve_shifted, _dist_to_interval

POLE_EXCLUSION = 1e-6   # practical no-pole zone around (-inf, 0]; contract is 1e-8
_MAX_LAWSON = 8


def moebius(z):
    """m(z) = 9(z-1)/(z+1), mapping (-1, 1] onto (-inf, 0]."""
    z = np.asarray(z)
    if np.any(z == -1.0):
        raise ValueError("moebius transform has its pole at z = -1")
    return 9.0 * (z - 1.0) / (z + 1.0)


def moebius_inv(lam):
    """m^{-1}(lam) = -(lam+9)/(lam-9), mapping (-inf, 0] onto (-1, 1]."""
    lam = np.asarray(lam)
    if np.any(lam == 9.0):
        raise ValueError("inverse moebius transform has its pole at lam = 9")
    return -(lam + 9.0) / (lam - 9.0)


class FitError(RuntimeError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class FitReport:
    degree: int
    max_error: float
    norm_estimate: float
    tol: float
    sample_count: int
    success: bool

    def csv_row(self):
        return f"{self.degree},{self.max_error!r},{self.norm_estimate!r},{self.tol!r}"


@dataclass(frozen=True)
class PartialFractionRational:
    """r(lam) = r0 + sum_i res_i / (lam - pole_i)."""

    r0: float
    poles: tuple          # complex, conjugation-closed
    residues: tuple

    def __post_init__(self):
        for p in self.poles:
            if _halfline_distance(p) <= 1e-8:
                raise ValueError(f"pole {p} lies on or within 1e-8 of (-inf, 0]")

    @property
    def degree(self):
        return len(self.poles)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        scalar = lam.ndim == 0
        lam = np.atleast_1d(lam)
        out = np.full(lam.shape, self.r0)
        for p, r in _paired(self.poles, self.residues):
            if p.imag == 0.0:
                out = out + r.real / (lam - p.real)
            else:
                q = 1.0 / (lam - p)
                out = out + 2.0 * (r.real * q.real - r.imag * q.imag)
        return out[0] if scalar else out


def _halfline_distance(p):
    p = complex(p)
    return abs(p.imag) if p.real <= 0 else abs(p)


def _paired(poles, residues):
    """One representative per conjugate pair (imag > 0 member) plus real poles,
    in a deterministic order."""
    poles = [complex(p) for p in poles]
    residues = [complex(r) for r in residues]
    seen = [False] * len(poles)
    order = sorted(range(len(poles)), key=lambda i: (poles[i].real, abs(poles[i].imag)))
    out = []
    for i in order:
        if seen[i]:
            continue
        p, r = poles[i], residues[i]
        if abs(p.imag) < 1e-13 * (1.0 + abs(p)):
            seen[i] = True
            out.append((complex(p.real), r))
            continue
        mate = None
        for j in order:
            if j != i and not seen[j] \
                    and abs(poles[j] - p.conjugate()) <= 1e-10 * (1.0 + abs(p)):
                mate = j
                break
        if mate is None:
            raise ValueError(f"pole {p} lacks a conjugate mate")
        seen[i] = seen[mate] = True
        if p.imag > 0:
            out.append((p, r))
        else:
            out.append((p.conjugate(), residues[mate]))
    return out


# ---------------------------------------------------------------------------
# sampling grids
# ---------------------------------------------------------------------------

def _build_grid(n_cheb, n_log):
    j = np.arange(n_cheb)
    z = np.cos((2 * j + 1) * np.pi / (2 * n_cheb))
    lam = np.concatenate([moebius(z), -np.logspace(-6, 6, n_log), [0.0]])
    cand = np.concatenate([np.ones(n_cheb, bool), np.zeros(n_log, bool), [True]])
    order = np.argsort(lam)
    lam, cand = lam[order], cand[order]
    keep = np.concatenate([[True], np.diff(lam) > 0])
    return lam[keep], cand[keep]

_TRAIN, _TRAIN_CAND = _build_grid(2000, 200)
_VALID, _ = _build_grid(2501, 217)
_Z = moebius_inv(_TRAIN)   # training grid in the barycentric variable


def _norm_estimate(values):
    """Discrete L2(-inf, 0] norm: trapezoid of g^2 in lambda over the mapped
    grid (Chebyshev spacing in z times the Moebius Jacobian)."""
    return float(np.sqrt(max(np.trapezoid(values**2, _TRAIN), 0.0)))


# ---------------------------------------------------------------------------
# adaptive barycentric fit
# ---------------------------------------------------------------------------

class _Loewner:
    """Stacked Loewner matrix of the normalized samples, one column per
    support point, kept across the greedy steps.

    Rows of support points and banned points are zeroed rather than deleted:
    zero rows change neither the singular values nor the right singular
    vectors, so each new support point costs one O(m) column plus the
    zeroing of its own rows.  The weights still factor the whole matrix
    (O(m k^2)), but only its k x k triangular factor goes into the SVD.
    Rows are ordered point-major (point i, component c at row i * nc + c).
    """

    def __init__(self, Fn, banned, kmax):
        npts, nc = Fn.shape
        self.Fn = Fn
        self.zero = np.zeros(npts, bool)
        self.zero[list(banned)] = True
        self.support = []
        self.C = np.zeros((npts, kmax), order="F")        # 1 / (z_i - z_k)
        self.A = np.zeros((npts * nc, kmax), order="F")

    def add(self, j):
        k = len(self.support)
        nc = self.Fn.shape[1]
        self.support.append(j)
        self.zero[j] = True
        self.C[j, :k] = 0.0
        self.A[j * nc:(j + 1) * nc, :k] = 0.0
        live = ~self.zero
        self.C[live, k] = 1.0 / (_Z[live] - _Z[j])
        self.A[:, k] = ((self.Fn - self.Fn[j]) * self.C[:, k, None]).ravel()

    def weights(self):
        """Right singular vector of the smallest singular value, taken from
        the SVD of the small triangular factor R of A = QR."""
        R = np.linalg.qr(self.A[:, :len(self.support)], mode="r")
        _, _, Vh = np.linalg.svd(R)
        return Vh[-1, :].conj()

    def values(self, Ft, w):
        """Barycentric approximant on the training grid; support and banned
        points keep their sample values."""
        C = self.C[:, :len(self.support)]
        den = C @ w
        den[self.zero] = 1.0
        R = (C @ (w[:, None] * Ft[self.support, :])) / den[:, None]
        R[self.zero] = Ft[self.zero]
        return R


def _greedy_barycentric(Ft, Fn, targets, d_max, banned):
    """Greedy support selection until the target or the degree budget is hit;
    returns the best state seen (late iterations can degrade on noise)."""
    kmax = min(d_max + 1, int(np.count_nonzero(_TRAIN_CAND)))
    L = _Loewner(Fn, banned, kmax)
    R = np.tile(Ft.mean(axis=0), (len(_Z), 1))
    w = None
    best = (np.inf, [], None)
    while len(L.support) <= d_max:
        sel = np.max(np.abs(Ft - R) / targets[None, :], axis=1)
        relerr = float(np.max(sel))
        if relerr < best[0] and L.support:
            best = (relerr, list(L.support), w.copy())
        if relerr <= 0.5 and L.support:
            break
        sel[~_TRAIN_CAND | L.zero] = 0.0
        j = int(np.argmax(sel))
        if sel[j] == 0.0:
            break
        L.add(j)
        w = L.weights()
        R = L.values(Ft, w)
    _, support, w = best
    return support, w


def _poles_of(support, w):
    zs = _Z[support]
    m = len(support)
    B = np.eye(m + 1)
    B[0, 0] = 0.0
    E = np.zeros((m + 1, m + 1), dtype=complex)
    E[0, 1:] = w
    E[1:, 0] = 1.0
    E[1:, 1:] = np.diag(zs)
    ev = eig(E, B, right=False)
    zp = ev[np.isfinite(ev)]
    return moebius(zp), zp


def _classify_poles(poles):
    """Split into real poles and one representative per conjugate pair.

    Near-real eigenvalues (imag below 1e-8 relative) collapse onto the real
    axis; lone negative-imag poles are folded to their conjugates so the
    basis is always conjugation-closed.
    """
    realp, pos, neg = [], [], []
    for p in poles:
        p = complex(p)
        if abs(p.imag) <= 1e-8 * (1.0 + abs(p)):
            realp.append(p.real)
        elif p.imag > 0:
            pos.append(p)
        else:
            neg.append(p)
    for p in neg:
        if not any(abs(q - p.conjugate()) <= 1e-8 * (1.0 + abs(p)) for q in pos):
            pos.append(p.conjugate())
    return sorted(realp), sorted(pos, key=lambda p: (p.real, p.imag))


def _residue_design(lams, poles):
    realp, pos = _classify_poles(poles)
    cols = [np.ones_like(lams)]
    for p in realp:
        cols.append(1.0 / (lams - p))
    for p in pos:
        q = 1.0 / (lams - p)
        cols.append(2.0 * q.real)
        cols.append(-2.0 * q.imag)
    return np.stack(cols, axis=1), realp, pos


def _residues_lawson(values, poles):
    """Conjugation-closed residues by column-scaled Lawson least squares."""
    A, realp, pos = _residue_design(_TRAIN, poles)
    cn = np.linalg.norm(A, axis=0)
    cn[cn == 0] = 1.0
    An = A / cn[None, :]
    wts = np.ones(len(_TRAIN))
    best = None
    stalled = 0
    for _ in range(_MAX_LAWSON):
        sw = np.sqrt(wts / wts.sum())
        c, *_ = np.linalg.lstsq(An * sw[:, None], values * sw, rcond=None)
        err = float(np.max(np.abs(An @ c - values)))
        if best is None or err < 0.9 * best[0]:
            best = (err, c)
            stalled = 0
        else:
            if err < best[0]:
                best = (err, c)
            stalled += 1
            if stalled >= 2:
                break
        wts = np.maximum(wts * np.abs(An @ c - values), 1e-300)
        wts /= wts.max()
    coef = best[1] / cn
    r0 = float(coef[0])
    pole_list, res_list = [], []
    i = 1
    for p in realp:
        pole_list.append(complex(p))
        res_list.append(complex(coef[i]))
        i += 1
    for p in pos:
        a, b = coef[i], coef[i + 1]
        i += 2
        pole_list.append(complex(p))
        res_list.append(complex(a, b))
        pole_list.append(complex(p).conjugate())
        res_list.append(complex(a, -b))
    return PartialFractionRational(r0, tuple(pole_list), tuple(res_list))


def _drop_bad_poles(support, w, banned, Fn):
    """Remove support points breeding half-line poles; recompute weights."""
    lamp, zp = _poles_of(support, w)
    for _ in range(6):
        bad = np.array([_halfline_distance(p) <= POLE_EXCLUSION * (1.0 + abs(p))
                        for p in lamp])
        if not bad.any() or not support:
            break
        zs = _Z[support]
        drop = sorted({int(np.argmin(np.abs(zs - z))) for z in zp[bad]}, reverse=True)
        for k in drop:
            banned.add(support[k])
            support.pop(k)
        if not support:
            return np.array([], dtype=complex), support, None
        L = _Loewner(Fn, banned, len(support))
        for j in support:
            L.add(j)
        w = L.weights()
        lamp, zp = _poles_of(support, w)
    keep = np.array([_halfline_distance(p) > POLE_EXCLUSION * (1.0 + abs(p))
                     for p in lamp])
    return lamp[keep], support, w


def _fit_adaptive(samples, d_max, targets):
    """Shared-pole fit; returns (fits, validation errors)."""
    F = np.stack([s["train"] for s in samples], axis=1)
    Ft = F - F[0, :][None, :]  # center by the most negative grid point
    comp_scale = np.max(np.abs(Ft), axis=0)
    active = np.flatnonzero(comp_scale > 0)
    if len(active) == 0:
        # constant components: exact degree-0 representation
        fits = [PartialFractionRational(float(F[0, c]), (), ())
                for c in range(F.shape[1])]
        return fits, _validate(fits, samples)
    Fn = Ft[:, active] / comp_scale[active][None, :]
    banned = set()
    result = None
    for _ in range(4):
        support, w = _greedy_barycentric(Ft, Fn, targets, d_max, banned)
        if not support:
            break
        lamp, support, w = _drop_bad_poles(support, w, banned, Fn)
        if not support:
            break
        poles = [complex(p) for p in lamp]
        fits = [_residues_lawson(F[:, c], poles) for c in range(F.shape[1])]
        errs = _validate(fits, samples)
        if result is None or float(np.max(errs / targets)) \
                < float(np.max(result[1] / targets)):
            result = (fits, errs)
        if np.all(errs <= targets):
            break
    if result is None:
        zero = PartialFractionRational(0.0, (), ())
        fits = [zero for _ in samples]
        result = (fits, _validate(fits, samples))
    return result


def _validate(fits, samples):
    return np.array([float(np.max(np.abs(fit(_VALID) - s["valid"])))
                     for fit, s in zip(fits, samples)])


# ---------------------------------------------------------------------------
# public fitting operations
# ---------------------------------------------------------------------------

def _sample(g):
    try:
        tr = np.asarray(g(_TRAIN), dtype=float)
        va = np.asarray(g(_VALID), dtype=float)
    except sym.SymbolError as exc:
        raise FitError(f"symbol not evaluable on the sampling grid: {exc}")
    if not (np.all(np.isfinite(tr)) and np.all(np.isfinite(va))):
        raise FitError("symbol is not finite on the sampling grid; "
                       "fit targets must be bounded on (-inf, 0]")
    return {"train": tr, "valid": va}


def _exp_table_candidate(a, d_max, target):
    """Scaled frozen near-best exponential fit meeting target, if any."""
    best = None
    for n in sorted(EXP_TABLE):
        if n > d_max:
            break
        r0, pairs = EXP_TABLE[n]
        cand = PartialFractionRational(
            r0, tuple(p / a for p, _ in pairs), tuple(r / a for _, r in pairs))
        err = float(np.max(np.abs(cand(_VALID) - np.exp(a * _VALID))))
        if best is None or err < best[1]:
            best = (cand, err)
        if err <= target:
            return cand, err
    return best


def fit_rational(g, d, tol):
    """Fit symbol g by a degree <= d partial-fraction rational on (-inf, 0].

    The error contract is sup-norm against a discrete L2 norm estimate of g:
    success means max validation error <= tol * ||g||_est.  When the target
    is unreachable at degree d the best-effort rational is returned with
    report.success = False (callers may raise the degree).
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if tol <= 0:
        raise ValueError("tolerance must be > 0")
    sample = _sample(g)
    norm = _norm_estimate(sample["train"])
    if norm == 0.0:
        zero = PartialFractionRational(0.0, (), ())
        return zero, FitReport(0, 0.0, 0.0, tol, len(_TRAIN), True)
    # aim for the (tighter) norm of the decaying part; judge success against
    # the published norm estimate of g itself
    cnorm = _norm_estimate(sample["train"] - sample["train"][0])
    target_int = tol * max(cnorm, 1e-300)
    target_pub = tol * norm

    best_fit, best_err = None, np.inf
    if isinstance(g, sym.Exp):
        if g.a == 0:
            one = PartialFractionRational(1.0, (), ())
            return one, FitReport(0, 0.0, norm, tol, len(_TRAIN), True)
        cand = _exp_table_candidate(g.a, d, target_int)
        if cand is not None:
            best_fit, best_err = cand
    if best_err > target_int:
        fits, errs = _fit_adaptive([sample], d, np.array([target_int]))
        if errs[0] < best_err:
            best_fit, best_err = fits[0], float(errs[0])
    report = FitReport(degree=best_fit.degree, max_error=best_err,
                       norm_estimate=norm, tol=tol, sample_count=len(_TRAIN),
                       success=best_err <= target_pub)
    return best_fit, report


def fit_rational_shared(gs, d, tol):
    """Fit several symbols with one shared pole set (joint-support AAA).

    The absolute error target of every component is tol * max_i ||g_i||_est,
    the natural scaling when the components are applied to vectors of
    comparable norm and summed.
    """
    if d < 0:
        raise ValueError("degree must be >= 0")
    if tol <= 0:
        raise ValueError("tolerance must be > 0")
    samples = [_sample(g) for g in gs]
    norms = np.array([_norm_estimate(s["train"]) for s in samples])
    scale = float(np.max(norms))
    if scale == 0.0:
        zero = PartialFractionRational(0.0, (), ())
        return [zero for _ in gs], FitReport(0, 0.0, 0.0, tol, len(_TRAIN), True)
    cnorms = [_norm_estimate(s["train"] - s["train"][0]) for s in samples]
    targets = np.full(len(gs), max(tol * max(cnorms), 1e-300))
    fits, errs = _fit_adaptive(samples, d, targets)
    degree = max(f.degree for f in fits)
    report = FitReport(degree=degree, max_error=float(np.max(errs)),
                       norm_estimate=scale, tol=tol,
                       sample_count=len(_TRAIN),
                       success=bool(np.all(errs <= tol * scale)))
    return fits, report


_MEMO_SIZE = 256
_fit_memo = OrderedDict()


def fit_cached(gs, d, tol):
    """fit_rational(gs, d, tol) for one symbol, or fit_rational_shared(gs,
    d, tol) for a list of them, computed once per process.

    A fit depends on its symbols, d and tol only, never on an operator or
    on data, so the (fit(s), FitReport) pairs are kept by (symbol keys, d,
    tol) in one least-recently-used memo of _MEMO_SIZE entries: problems
    that share T, alpha, beta and mu share their fits.  Shared fits come
    back as a tuple.
    """
    shared = not isinstance(gs, sym.SymbolExpr)
    key = (tuple(g.key for g in gs) if shared else gs.key, d, tol)
    out = _fit_memo.get(key)
    if out is not None:
        _fit_memo.move_to_end(key)
        return out
    if shared:
        fits, report = fit_rational_shared(gs, d, tol)
        out = (tuple(fits), report)
    else:
        out = fit_rational(gs, d, tol)
    _fit_memo[key] = out
    if len(_fit_memo) > _MEMO_SIZE:
        _fit_memo.popitem(last=False)
    return out


def contour_exp(n, t):
    """Partial fractions of exp(t*lambda) from n-point trapezoid quadrature
    of the Cauchy integral along a left-opening hyperbola; the observed sup
    error decays like 3.2^-n."""
    if n < 4:
        raise ValueError(f"need n >= 4 quadrature points, got {n}")
    if t <= 0:
        raise ValueError(f"time scale must be positive, got {t}")
    # hyperbola parameters tuned for the sup error on (-inf, 0]; the observed
    # constant err * 3.2^n stays below 1 for n up to the double-precision floor
    alpha = 1.09
    mu = 2.05 * n
    h = 2.18 / n
    k = np.arange(n)
    u = (k + 0.5) * h - n * h / 2.0
    s = mu * (1.0 + np.sin(1j * u - alpha))
    sp = 1j * mu * np.cos(1j * u - alpha)
    res = (1j * h / (2 * np.pi)) * np.exp(s) * sp
    return PartialFractionRational(0.0, tuple(s / t), tuple(res / t))


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def apply_rational(op, r, v):
    """r(A) v = r0 v + sum_i res_i (A - pole_i)^{-1} v.

    Conjugate pole pairs fold into one complex solve each; a
    conjugation-closed rational applied to real data returns real values.
    """
    return apply_rational_shared(op, [r], [v])


def apply_rational_shared(op, rationals, vectors):
    """sum_j r_j(A) v_j for rationals sharing one pole set (one solve per
    conjugate pair, combined right-hand sides)."""
    keys = {_pole_key(r) for r in rationals}
    if len(keys) > 1:
        raise ValueError("shared application requires identical pole sets")
    lo, hi = op.lam_min, op.kappa
    base = rationals[0]
    for p in base.poles:
        if _dist_to_interval(complex(p), lo, hi) <= 1e-12 * abs(lo):
            raise ValueError(f"pole {p} inside spectral enclosure [{lo}, {hi}]")
    vecs = [np.asarray(v.values if isinstance(v, MeshFunction) else v, dtype=float)
            for v in vectors]
    out = np.zeros(op.n)
    for r, vec in zip(rationals, vecs):
        out = out + r.r0 * vec
    if not base.poles:
        return op.function(out)
    reps = [_paired(r.poles, r.residues) for r in rationals]
    for idx, (p, _) in enumerate(reps[0]):
        rhs = np.zeros(op.n, dtype=complex)
        for j in range(len(rationals)):
            rhs += reps[j][idx][1] * vecs[j]
        x = solve_shifted(op, p, rhs).values
        # 1/(lam - p) corresponds to -(p - A)^{-1}
        out = out - (x.real if p.imag == 0.0 else 2.0 * x.real)
    return op.function(out)


def _pole_key(r):
    return tuple(sorted((complex(p).real, complex(p).imag) for p in r.poles))


# ---------------------------------------------------------------------------
# semigroup action
# ---------------------------------------------------------------------------

_SEMIGROUP_TOL = 1e-12


def semigroup_fit(t):
    """Partial-fraction approximant of exp(t*lambda), tol 1e-12."""
    r, report = fit_cached(sym.Exp(t), 24, _SEMIGROUP_TOL)
    if not report.success:
        raise FitError(f"semigroup fit at t={t} failed: {report}", report)
    return r


def semigroup_apply(op, t, v):
    """S_t v = exp(t A) v; exact identity at t = 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    if t == 0:
        vals = np.asarray(v.values if isinstance(v, MeshFunction) else v, dtype=float)
        return op.function(vals.copy())
    return apply_rational(op, semigroup_fit(t), v)
