"""Partial-fraction rational approximation on (-inf, 0] and operator application.

Pipeline: symbols are sampled on a fixed training grid _TRAIN that is
Chebyshev-distributed in the Moebius-mapped coordinate
m^{-1}((-inf,0]) = (-1,1] plus log-spaced points near the origin.  An
adaptive barycentric (AAA-style) iteration picks support points and weights
by least squares on a row subset of _TRAIN: every _STRIDE-th point, refined
around each support point; once the approximant meets half the target on
the subset it is checked on the whole of _TRAIN, and the points that miss
join the subset before the iteration goes on (Driscoll, Nakatsukasa &
Trefethen, AAA rational approximation on a continuum, SISC 2024).  Poles
come from the generalized eigenvalue problem of the barycentric pencil;
spurious poles on the half-line are pruned by support removal and the fit
restarted with those points banned; the residues of all components come
from one least-squares solve on the same subset, in a conjugation-closed
real parameterization; the result is validated on a denser independent
grid _VALID.  A single symbol is fitted as a one-component shared fit.
The solve path requests every fit as fit_required(gs, tol, what): the
memoized fit_cached at DEGREE_CAP, and a FitError naming what on a miss.

A lone pure exponential exp(t*lambda) bypasses the adaptive fit: a frozen
table of near-best approximants of exp(x) (Caratheodory-Fejer, see
scripts/gen_exp_table.py) is rescaled by t, which preserves the sup error
on the half-line exactly.  Segment integrals from 0, SI(0, h, s)(lambda)
= h U(s h lambda), are served the same way by the fit of U = SI(0, 1, 1).

A rational stores each real pole and one member of each conjugate pair, the
one with imag > 0, each with its own residue; the other member of a pair is
implied, with the conjugate residue.  The poles are sorted by real part,
then by imag, and every sum runs in that order.  Applying r(A)v thus costs
one complex shifted solve per stored pole:
r(A)v = r0 v + sum_i res_i (A - pole_i)^{-1} v + the conjugate terms.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig, lapack

from ._exp_table import EXP_TABLE
from . import symbols as sym
from .operators import MeshFunction, solve_shifted

POLE_EXCLUSION = 1e-6   # practical no-pole zone around (-inf, 0]; contract is 1e-8
_STRIDE = 4             # a fit's row set starts as every 4th training point
_RADIUS = 4             # and gains the 4 grid neighbours on each side of a point


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
    """r(lam) = r0 + sum_i res_i / (lam - pole_i) over a conjugation-closed
    pole set.

    Half of it is stored: each real pole and, of each conjugate pair, the
    member with imag > 0, each with its own residue; the other member of a
    pair has the conjugate residue.  The poles are sorted by real part, then
    by imag, and the terms are summed in that order.  So r is real on the
    real line, and degree counts both members of each pair.
    """

    r0: float
    poles: tuple          # complex, imag >= 0
    residues: tuple

    def __post_init__(self):
        if len(self.residues) != len(self.poles):
            raise ValueError(f"{len(self.poles)} poles but {len(self.residues)} residues")
        for p in self.poles:
            if p.imag < 0:
                raise ValueError(f"pole {p} has imag < 0; a conjugate pair is stored "
                                 "by its member with imag > 0")
            if _halfline_distance(p) <= 1e-8:
                raise ValueError(f"pole {p} lies on or within 1e-8 of (-inf, 0]")

    @property
    def degree(self):
        return sum(1 if p.imag == 0.0 else 2 for p in self.poles)

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        scalar = lam.ndim == 0
        lam = np.atleast_1d(lam)
        out = np.full(lam.shape, self.r0)
        for p, r in zip(self.poles, self.residues):
            if p.imag == 0.0:
                out = out + r.real / (lam - p.real)
            else:
                q = 1.0 / (lam - p)
                out = out + 2.0 * (r.real * q.real - r.imag * q.imag)
        return out[0] if scalar else out


def _rational(r0, terms):
    """The PartialFractionRational r0 + sum of the (pole, residue) terms,
    given for a whole conjugation-closed pole set or for its members with
    imag >= 0 only: those are kept, sorted into stored order."""
    kept = sorted(((complex(p), complex(r)) for p, r in terms if p.imag >= 0),
                  key=lambda t: (t[0].real, t[0].imag))
    return PartialFractionRational(float(r0), tuple(p for p, _ in kept),
                                   tuple(r for _, r in kept))


def _halfline_distance(p):
    p = complex(p)
    return abs(p.imag) if p.real <= 0 else abs(p)


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

def _initial_rows():
    """The row set S a fit starts from: every _STRIDE-th training point."""
    rows = np.zeros(len(_TRAIN), bool)
    rows[::_STRIDE] = True
    return rows


class _Loewner:
    """Stacked Loewner matrix of the normalized samples on the row set S of
    the training grid, one column per support point, kept across the greedy
    steps.

    S is the boolean mask `rows`, owned by the fit, so it only grows: every
    support point brings its _RADIUS grid neighbours on each side, and
    `include` adds further points.  The matrix holds one block of nc rows
    per live point of S (neither a support nor a banned point), in the
    order `live`; a new support point's block is overwritten by the last
    one.  Each support point so costs one column over S plus the rows of its
    new neighbours, and the weights come from the SVD of the k x k
    triangular factor R of the matrix.  The Cauchy matrix C, the mapped
    nodes and the samples of the live points are kept in the same order.
    """

    def __init__(self, Ft, Fn, banned, kmax, rows):
        npts, nc = Fn.shape
        self.Ft, self.Fn, self.rows = Ft, Fn, rows
        self.dead = np.zeros(npts, bool)
        self.dead[list(banned)] = True
        self.support = []
        self.m = 0
        self.live = np.empty(npts, int)          # the live points, in matrix order,
        self.z = np.empty(npts)                  # their nodes z_i,
        self.F = np.empty_like(Ft)               # their samples
        self.G = np.empty_like(Fn)               # and normalized samples
        self.C = np.zeros((kmax, npts))          # 1 / (z_i - z_k)
        self.A = np.zeros((kmax, npts, nc))      # (G_i - G_k) / (z_i - z_k)
        self._append(np.flatnonzero(rows & ~self.dead))

    def _append(self, pts):
        m, n, k = self.m, len(pts), len(self.support)
        self.m = m + n
        new = slice(m, m + n)
        self.live[new], self.z[new] = pts, _Z[pts]
        self.F[new], self.G[new] = self.Ft[pts], self.Fn[pts]
        if k and n:
            sup = self.support
            C = 1.0 / (self.z[None, new] - _Z[sup][:, None])
            self.C[:k, new] = C
            self.A[:k, new] = \
                (self.G[None, new] - self.Fn[sup][:, None]) * C[:, :, None]

    def include(self, points):
        """Add the points and their grid neighbours to S."""
        for j in points:
            lo = max(j - _RADIUS, 0)
            new = lo + np.flatnonzero(~self.rows[lo:j + _RADIUS + 1])
            self.rows[new] = True
            self._append(new[~self.dead[new]])

    def add(self, j):
        self.include([j])
        self.dead[j] = True
        p = int(np.flatnonzero(self.live[:self.m] == j)[0])
        m = self.m = self.m - 1
        for X in (self.live, self.z, self.F, self.G):
            X[p] = X[m]
        self.C[:, p], self.A[:, p] = self.C[:, m], self.A[:, m]
        k = len(self.support)
        self.support.append(j)
        self.C[k, :m] = 1.0 / (self.z[:m] - _Z[j])
        self.A[k, :m] = (self.G[:m] - self.Fn[j]) * self.C[k, :m, None]

    def weights(self):
        """Right singular vector of the smallest singular value, taken from
        the SVD of the small triangular factor R of A = QR.  The QR is the
        recursive one of xGEQRT with a single block of all k columns: on
        level-3 BLAS it is several times faster than xGEQRF on these tall,
        thin matrices.  It works on a copy; A itself must stay intact."""
        k = len(self.support)
        qr, _, info = lapack.dgeqrt(k, self.A[:k, :self.m].reshape(k, -1).T)
        if info != 0:
            raise np.linalg.LinAlgError(f"dgeqrt failed with info = {info}")
        _, _, Vh = np.linalg.svd(np.triu(qr[:k]))
        return Vh[-1, :].conj()

    def values(self, w, idx=None):
        """Barycentric approximant at the live points of S, or at the
        training points idx, where support and banned points keep their
        sample values."""
        sup = self.support
        Fw = w[:, None] * self.Ft[sup]
        if idx is None:
            C = self.C[:len(sup), :self.m]
            return (C.T @ Fw) / (C.T @ w)[:, None]
        keep = ~self.dead[idx]
        R = self.Ft[idx]
        C = 1.0 / (_Z[idx[keep], None] - _Z[sup][None, :])
        R[keep] = (C @ Fw) / (C @ w)[:, None]
        return R


def _greedy_barycentric(Ft, Fn, targets, d_max, banned, rows):
    """Greedy support selection on the row set S until the target or the
    degree budget is hit; returns the best state seen (late iterations can
    degrade on noise).

    Once the approximant meets half the target on S it is judged on the
    whole training grid; the points that miss there join S, with their
    neighbours, and the greedy goes on.  So it stops on the full-grid test.
    """
    kmax = min(d_max + 1, int(np.count_nonzero(_TRAIN_CAND)))
    L = _Loewner(Ft, Fn, banned, kmax, rows)
    every = np.arange(len(_Z))
    w = None
    best = (np.inf, [], None)

    def relerr(idx=None):
        F = L.F[:L.m] if idx is None else Ft[idx]
        R = Ft.mean(axis=0) if w is None else L.values(w, idx)
        return np.max(np.abs(F - R) / targets[None, :], axis=1)

    while len(L.support) <= d_max:
        sel = relerr()
        err = float(np.max(sel))
        if err <= 0.5 and L.support:
            full = relerr(every)
            err = float(np.max(full))
            if err > 0.5:
                L.include(np.flatnonzero(full > 0.5))
                sel = relerr()
        if err < best[0] and L.support:
            best = (err, list(L.support), w.copy())
        if err <= 0.5 and L.support:
            break
        sel[~_TRAIN_CAND[L.live[:L.m]]] = 0.0
        k = int(np.argmax(sel))
        if sel[k] == 0.0:
            break
        L.add(int(L.live[k]))
        w = L.weights()
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


def _residues(F, poles, rows):
    """Conjugation-closed residues of every column of F by one least-squares
    solve on the row set S: all columns share the column-scaled design."""
    idx = np.flatnonzero(rows)
    A, realp, pos = _residue_design(_TRAIN[idx], poles)
    cn = np.linalg.norm(A, axis=0)
    cn[cn == 0] = 1.0
    coef, *_ = np.linalg.lstsq(A / cn[None, :], F[idx], rcond=None)
    # a real pole's residue is one coefficient, a pair's the next two
    k = len(realp)
    return [_rational(c[0], zip([*realp, *pos],
                                [*c[1:k + 1], *map(complex, c[k + 1::2], c[k + 2::2])]))
            for c in (coef / cn[:, None]).T]


def _drop_bad_poles(support, w, banned, Ft, Fn, rows):
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
        L = _Loewner(Ft, Fn, banned, len(support), rows)
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
    rows = _initial_rows()
    result = None
    for _ in range(4):
        support, w = _greedy_barycentric(Ft, Fn, targets, d_max, banned, rows)
        if not support:
            break
        lamp, support, w = _drop_bad_poles(support, w, banned, Ft, Fn, rows)
        if not support:
            break
        fits = _residues(F, [complex(p) for p in lamp], rows)
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


def fit_rational(g, d, tol):
    """Fit symbol g by a degree <= d partial-fraction rational on (-inf, 0]:
    the single fit of fit_rational_shared([g], d, tol).

    The error contract is sup-norm against a discrete L2 norm estimate of g:
    success means max validation error <= tol * ||g||_est.  When the target
    is unreachable at degree d the best-effort rational is returned with
    report.success = False (callers may raise the degree).
    """
    fits, report = _fit([g], d, tol)
    return fits[0], report


def fit_rational_shared(gs, d, tol):
    """Fit several symbols with one shared pole set (joint-support AAA).

    The absolute error target of every component is tol * max_i ||g_i||_est,
    the natural scaling when the components are applied to vectors of
    comparable norm and summed.
    """
    return _fit(gs, d, tol)


def _fit(gs, d, tol):
    """The one fit path of fit_rational and fit_rational_shared.

    The fit aims for tol times the largest norm of the decaying parts
    g_i - g_i(-inf), which is tighter, and its success is judged against
    tol times the largest norm of the g_i themselves.  A lone pure
    exponential or segment integral from 0 first tries a rescaled
    ready-made fit, and takes the adaptive fit only where that one misses.
    """
    if not gs:
        raise ValueError("need at least one symbol to fit")
    if d < 0:
        raise ValueError("degree must be >= 0")
    if tol <= 0:
        raise ValueError("tolerance must be > 0")
    samples = [_sample(g) for g in gs]
    scale = max(_norm_estimate(s["train"]) for s in samples)
    target = max(tol * max(_norm_estimate(s["train"] - s["train"][0])
                           for s in samples), 1e-300)
    ready = _ready_made(gs[0], samples[0], d, tol, target) if len(gs) == 1 else None
    if ready is not None and ready[1] <= target:
        fits, errs = [ready[0]], np.array([ready[1]])
    else:
        fits, errs = _fit_adaptive(samples, d, np.full(len(gs), target))
        if ready is not None and ready[1] <= errs[0]:
            fits, errs = [ready[0]], np.array([ready[1]])
    return fits, FitReport(degree=max(f.degree for f in fits),
                           max_error=float(np.max(errs)), norm_estimate=scale,
                           tol=tol, sample_count=len(_TRAIN),
                           success=bool(np.all(errs <= tol * scale)))


def _ready_made(g, sample, d, tol, target):
    """(rational, validation error) of a rescaled ready-made fit of g, or
    None when g has none.

    exp(a lam), a > 0: the frozen near-best table, rescaled by a, at the
    least degree <= d that meets target, else its best degree.
    SI(0, h, s) = h U(s h lam), other than U = SI(0, 1, 1) itself: the
    cached fit of U, rescaled.  The adaptive fit of SI(0, h, s) misses its
    target below h ~ 3e-5 (by a factor 6.6e5 at 1e-6).
    """
    if isinstance(g, sym.Exp) and g.a > 0:
        a = g.a
        cands = (_rational(r0, ((p / a, r / a) for p, r in pairs))
                 for n, (r0, pairs) in sorted(EXP_TABLE.items()) if n <= d)
    elif isinstance(g, sym.SegmentIntegral) and g.a == 0 \
            and (g.b, g.scale) != (1.0, 1.0):
        h, s = g.b, g.scale
        (u,), _ = fit_cached([sym.segment_integral(0.0, 1.0, 1)], d, tol)
        cands = [_rational(u.r0 * h, ((p / (s * h), r / s)
                                      for p, r in zip(u.poles, u.residues)))]
    else:
        return None
    best = None
    for cand in cands:
        err = float(np.max(np.abs(cand(_VALID) - sample["valid"])))
        if best is None or err < best[1]:
            best = (cand, err)
        if err <= target:
            break
    return best


_MEMO_SIZE = 256
_fit_memo = OrderedDict()
DEGREE_CAP = 40     # the degree budget of every fit the solve path requires


def fit_cached(gs, d, tol):
    """fit_rational_shared(gs, d, tol) for a sequence of symbols, with the
    fits as a tuple, computed once per process.

    A fit depends on its symbols, d and tol only, never on an operator or
    on data, so the (fits, FitReport) pairs are kept by (symbol keys, d,
    tol) in one least-recently-used memo of _MEMO_SIZE entries: problems
    that share T, alpha, beta and mu share their fits.
    """
    key = (tuple(g.key for g in gs), d, tol)
    out = _fit_memo.get(key)
    if out is not None:
        _fit_memo.move_to_end(key)
        return out
    fits, report = fit_rational_shared(gs, d, tol)
    out = _fit_memo[key] = (tuple(fits), report)
    if len(_fit_memo) > _MEMO_SIZE:
        _fit_memo.popitem(last=False)
    return out


def fit_required(gs, tol, what):
    """The fits of fit_cached(gs, DEGREE_CAP, tol); raises FitError naming
    what when they miss tol."""
    fits, report = fit_cached(gs, DEGREE_CAP, tol)
    if not report.success:
        raise FitError(f"{what}: tolerance unreachable at degree {DEGREE_CAP}"
                       f" (best error {report.max_error:.3e})", report)
    return fits


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
    return _rational(0.0, zip(s / t, res / t))


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def apply_rational(op, r, v):
    """r(A) v = r0 v + sum_i res_i (A - pole_i)^{-1} v.

    One complex solve per stored pole: a conjugate pair's two terms are
    twice the real part of one, so real data gives real values.
    """
    return apply_rational_shared(op, [r], [v])


def apply_rational_shared(op, rationals, vectors):
    """sum_j r_j(A) v_j for rationals sharing one pole set: one solve per
    stored pole, on the combined right-hand side.  solve_shifted raises
    ShiftError for a pole inside or too close to the spectral enclosure."""
    if not rationals or len(rationals) != len(vectors):
        raise ValueError(f"need one vector per rational, got {len(rationals)} "
                         f"rationals and {len(vectors)} vectors")
    base = rationals[0]
    if any(r.poles != base.poles for r in rationals):
        raise ValueError("shared application requires identical pole sets")
    vecs = [np.asarray(v.values if isinstance(v, MeshFunction) else v, dtype=float)
            for v in vectors]
    out = np.zeros(op.n)
    for r, vec in zip(rationals, vecs):
        out = out + r.r0 * vec
    for idx, p in enumerate(base.poles):
        rhs = np.zeros(op.n, dtype=complex)
        for r, vec in zip(rationals, vecs):
            rhs += r.residues[idx] * vec
        x = solve_shifted(op, p, rhs).values
        # 1/(lam - p) corresponds to -(p - A)^{-1}
        out = out - (x.real if p.imag == 0.0 else 2.0 * x.real)
    return op.function(out)


# ---------------------------------------------------------------------------
# semigroup action
# ---------------------------------------------------------------------------

def semigroup_fit(t, tol):
    """Partial-fraction approximant of exp(t*lambda) to tolerance tol."""
    return fit_required([sym.Exp(t)], tol, f"semigroup fit at t={t}")[0]


def semigroup_apply(op, t, v, tol):
    """S_t v = exp(t A) v, fitted to tolerance tol; exact identity at t = 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be >= 0, got {t}")
    if t == 0:
        vals = np.asarray(v.values if isinstance(v, MeshFunction) else v, dtype=float)
        return op.function(vals.copy())
    return apply_rational(op, semigroup_fit(t, tol), v)
