from collections import OrderedDict

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from parabolic_control import control as ctl
from parabolic_control import operators as ops
from parabolic_control import rational as rat
from parabolic_control import symbols as sym

T = 0.01
BIG_PSI = sym.const(1e-4) + sym.segment_integral(T / 3, 2 * T / 3, 2)


# ---------------------------------------------------------------------------
# Moebius transform
# ---------------------------------------------------------------------------

def test_moebius_endpoints():
    assert rat.moebius(1.0) == 0.0
    assert rat.moebius(0.0) == -9.0
    assert rat.moebius_inv(0.0) == 1.0


@given(st.floats(min_value=-0.999999, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_moebius_roundtrip(z):
    assert rat.moebius_inv(rat.moebius(z)) == pytest.approx(z, abs=1e-9)


def test_moebius_pole_rejected():
    with pytest.raises(ValueError):
        rat.moebius(-1.0)
    with pytest.raises(ValueError):
        rat.moebius_inv(9.0)


def test_moebius_maps_interval_to_halfline():
    z = np.linspace(-0.9999, 1.0, 500)
    lam = rat.moebius(z)
    assert np.all(lam <= 0)
    assert np.all(np.diff(lam) > 0)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_constant_exact():
    r, rep = rat.fit_rational(sym.const(1.0), 0, 1e-12)
    assert rep.success and rep.degree == 0
    assert r.r0 == 1.0 and rep.max_error == 0.0


def test_fit_recovers_simple_rational():
    g = sym.const(1.0) / (sym.const(1.0) - sym.ident())
    r, rep = rat.fit_rational(g, 4, 1e-12)
    assert rep.success
    assert r.degree == 1
    assert r.poles[0] == pytest.approx(1.0, abs=1e-10)
    assert r.residues[0] == pytest.approx(-1.0, abs=1e-10)


def test_fit_paper_production_setting():
    """The reference setting: exp(T lam), 18 pole-residue pairs, tol 1e-15.

    In 64-bit pole-residue form the storage/evaluation floor of any
    sufficiently accurate approximant is kappa*eps ~ 1e-14 (kappa >= 66
    measured over near-best and adaptive pole sets), above the requested
    1e-15 * ||g||_L2 = 7.07e-15; the fit is returned with a best-effort
    report per the unreachable-tolerance contract and meets the production
    tolerance 1e-12 comfortably.
    """
    g = sym.expm(T)
    r, rep = rat.fit_rational(g, 18, 1e-15)
    assert rep.degree <= 18
    assert rep.max_error <= 1e-13
    r12, rep12 = rat.fit_rational(g, 18, 1e-12)
    assert rep12.success
    assert rep12.max_error <= 1e-12 * rep12.norm_estimate


def _phi_pair(mu):
    """The shared-pole pair the Phi evaluation fits:
    (mu e^{2T} / (mu e^{2T} + Psi), e^T / (mu e^{2T} + Psi))."""
    denom = sym.const(mu) * sym.expm(2 * T) + BIG_PSI
    return (sym.const(mu) * sym.expm(2 * T) / denom, sym.expm(T) / denom)


def test_fit_report_contract():
    for g in (sym.expm(T), BIG_PSI):
        r, rep = rat.fit_rational(g, 40, 1e-12)
        assert rep.success
        assert rep.max_error <= rep.tol * rep.norm_estimate
        assert rep.sample_count >= 2000
    for mu in (0.0, 1e-3, 1.0, 1e2, 1e5, 1e8, 1e11):
        fits, rep = rat.fit_rational_shared(_phi_pair(mu), ctl.DEGREE_CAP, 1e-12)
        assert rep.success, mu
        assert rep.degree <= ctl.DEGREE_CAP
        assert rep.max_error <= rep.tol * rep.norm_estimate


def test_incremental_loewner_matches_rebuilt_matrix():
    """Zeroed rows leave the right singular vectors unchanged: the weights of
    the column-by-column Loewner matrix equal those of a matrix rebuilt from
    scratch with the support and banned rows deleted."""
    F = np.stack([g(rat._TRAIN) for g in _phi_pair(1.0)], axis=1)
    Ft = F - F[0]
    Fn = Ft / np.max(np.abs(Ft), axis=0)
    cand = np.flatnonzero(rat._TRAIN_CAND)
    support = [int(j) for j in cand[100::240][:6]]
    banned = {int(cand[1500])}
    Z = rat._Z
    L = rat._Loewner(Fn, banned, len(support))
    for k, j in enumerate(support, 1):
        L.add(j)
        w = L.weights()
        sup = support[:k]
        keep = np.ones(len(Z), bool)
        keep[sup + sorted(banned)] = False
        C = 1.0 / (Z[keep, None] - Z[sup][None, :])
        A = np.vstack([Fn[keep, c:c + 1] * C - C * Fn[sup, c][None, :]
                       for c in range(Fn.shape[1])])
        sv, Vh = np.linalg.svd(A, full_matrices=False)[1:]
        # the smallest singular value stays above 1e-9 of the largest here,
        # so both unit weight vectors are determined to about 1e-13
        assert sv[-1] >= 1e-9 * sv[0]
        w_ref = Vh[-1]
        assert np.max(np.abs(w * np.sign(w @ w_ref) - w_ref)) <= 1e-12


def test_fit_failure_report_carries_best_error():
    r, rep = rat.fit_rational(sym.expm(1.0), 4, 1e-14)
    assert not rep.success
    assert 0 < rep.max_error < 1e-3


def test_fit_error_decays_geometrically():
    errs = []
    for d in (4, 6, 8, 10, 12):
        _, rep = rat.fit_rational(sym.expm(1.0), d, 1e-300)
        errs.append(rep.max_error)
    for a, b in zip(errs, errs[1:]):
        assert b <= 0.5 * a


def test_fit_rejects_unbounded_symbol():
    with pytest.raises(rat.FitError):
        rat.fit_rational(sym.recip(), 8, 1e-6)  # 1/lam unbounded at 0


def test_pole_on_halfline_rejected():
    with pytest.raises(ValueError):
        rat.PartialFractionRational(0.0, (-1.0 + 0j,), (1.0 + 0j,))
    with pytest.raises(ValueError):
        rat.PartialFractionRational(0.0, (-5.0 + 1e-9j,), (1.0 + 0j,))


def test_conjugation_closure_of_fits():
    g = sym.expm(T) / (sym.const(1.0) + sym.segment_integral(T/3, 2*T/3, 2))
    r, rep = rat.fit_rational(g, 30, 1e-10)
    poles = np.array(r.poles)
    for p in poles[np.abs(poles.imag) > 0]:
        assert np.min(np.abs(poles - np.conj(p))) <= 1e-10 * (1 + abs(p))
    vals = r(np.linspace(-50, 0, 101))
    assert np.isrealobj(vals)


# ---------------------------------------------------------------------------
# contour quadrature
# ---------------------------------------------------------------------------

def contour_sup_error(n, t=1.0):
    grid = rat._VALID
    r = rat.contour_exp(n, t)
    return float(np.max(np.abs(r(grid) - np.exp(t * grid))))


def test_contour_rate():
    e12 = contour_sup_error(12)
    e16 = contour_sup_error(16)
    assert e16 <= e12 * 3.2 ** (-4) * 10.0


def test_contour_value_at_zero():
    n = 16
    r = rat.contour_exp(n, 1.0)
    assert abs(r(0.0) - 1.0) <= contour_sup_error(n) * 1.0000001


def test_contour_n24_accuracy():
    assert contour_sup_error(24) <= 1e-9


def test_contour_validation():
    with pytest.raises(ValueError):
        rat.contour_exp(3, 1.0)
    with pytest.raises(ValueError):
        rat.contour_exp(8, 0.0)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def test_apply_constant_rational_is_identity(op20):
    r = rat.PartialFractionRational(1.0, (), ())
    v = op20.function(np.sin(op20.coords))
    out = rat.apply_rational(op20, r, v)
    assert np.array_equal(out.values, v.values)


def test_apply_single_pole_equals_shifted_solve(op20):
    r = rat.PartialFractionRational(0.0, (1.0 + 0j,), (-1.0 + 0j,))
    rng = np.random.default_rng(3)
    v = op20.function(rng.standard_normal(op20.n))
    got = rat.apply_rational(op20, r, v)
    want = ops.solve_shifted(op20, 1.0, v)
    assert np.allclose(got.values, want.values.real,
                       rtol=1e-12, atol=1e-14)


def test_apply_semigroup_matches_dense_oracle(op64):
    theta, V = scipy.linalg.eigh(op64.K.toarray(), np.diag(op64.M))
    lam = -theta
    rng = np.random.default_rng(4)
    v = rng.standard_normal(op64.n)
    r, rep = rat.fit_rational(sym.expm(T), 24, 1e-12)
    got = rat.apply_rational(op64, r, op64.function(v)).values
    coef = V.T @ (op64.M * v)
    want = V @ (np.exp(T * lam) * coef)
    num = ops.norm_m(op64, got - want)
    assert num <= 1e-8 * ops.norm_m(op64, v)


def test_apply_rejects_pole_in_enclosure(op20):
    lo, hi = ops.spectral_bounds(op20)
    mid = 0.5 * (lo + hi)
    r = rat.PartialFractionRational(0.0, (mid + 1e-3j,), (1.0 + 0j,))
    with pytest.raises(ValueError):
        rat.apply_rational(op20, r, op20.function(np.ones(op20.n)))


def test_apply_shared_requires_same_poles(op20):
    r1 = rat.PartialFractionRational(0.0, (1.0 + 0j,), (1.0 + 0j,))
    r2 = rat.PartialFractionRational(0.0, (2.0 + 0j,), (1.0 + 0j,))
    v = op20.function(np.ones(op20.n))
    with pytest.raises(ValueError):
        rat.apply_rational_shared(op20, [r1, r2], [v, v])


@given(a=st.floats(min_value=-2, max_value=2), b=st.floats(min_value=-2, max_value=2))
@settings(max_examples=15, deadline=None)
def test_apply_rational_linearity(op20, a, b):
    r = rat.semigroup_fit(T)
    rng = np.random.default_rng(9)
    x, y = rng.standard_normal((2, op20.n))
    lhs = rat.apply_rational(op20, r, op20.function(a * x + b * y)).values
    rhs = a * rat.apply_rational(op20, r, op20.function(x)).values \
        + b * rat.apply_rational(op20, r, op20.function(y)).values
    scale = max(ops.norm_m(op20, lhs), 1e-30)
    assert ops.norm_m(op20, lhs - rhs) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# semigroup
# ---------------------------------------------------------------------------

def test_semigroup_identity_at_zero(op20):
    v = op20.function(np.cos(op20.coords))
    out = rat.semigroup_apply(op20, 0.0, v)
    assert np.array_equal(out.values, v.values)
    assert out.values is not v.values


def test_semigroup_property(op20):
    rng = np.random.default_rng(8)
    v = op20.function(rng.standard_normal(op20.n))
    via_two = rat.semigroup_apply(op20, T / 2, rat.semigroup_apply(op20, T / 2, v))
    direct = rat.semigroup_apply(op20, T, v)
    assert ops.norm_m(op20, via_two.values - direct.values) \
        <= 1e-8 * ops.norm_m(op20, v)


def test_semigroup_monotone_decay(op20):
    rng = np.random.default_rng(10)
    v = op20.function(rng.standard_normal(op20.n))
    norms = [ops.norm_m(op20, rat.semigroup_apply(op20, t, v))
             for t in (0.0, 0.005, 0.02, 0.1)]
    for a, b in zip(norms, norms[1:]):
        assert b < a


def test_semigroup_rejects_negative_time(op20):
    with pytest.raises(ValueError):
        rat.semigroup_apply(op20, -0.1, op20.function(np.ones(op20.n)))


# ---------------------------------------------------------------------------
# oracle-equivalence invariant for the control-module symbol class
# ---------------------------------------------------------------------------

def test_fits_match_spectral_oracle(op64):
    theta, V = scipy.linalg.eigh(op64.K.toarray(), np.diag(op64.M))
    lam = -theta
    rng = np.random.default_rng(17)
    v = rng.standard_normal(op64.n)
    coef = V.T @ (op64.M * v)
    big_psi = sym.const(1e-4) + sym.segment_integral(T / 3, 2 * T / 3, 2)
    mu = 0.7
    denom = sym.const(mu) * sym.expm(2 * T) + big_psi
    for g in (big_psi, sym.const(1.0) / big_psi,
              (sym.const(mu) * sym.expm(2 * T)) / denom, sym.expm(T) / denom):
        r, rep = rat.fit_rational(g, 40, 1e-12)
        got = rat.apply_rational(op64, r, op64.function(v)).values
        want = V @ (np.asarray(g(lam)) * coef)
        assert ops.norm_m(op64, got - want) \
            <= (rep.max_error + 1e-9) * ops.norm_m(op64, v)


def test_fit_report_csv_row():
    _, rep = rat.fit_rational(sym.expm(T), 24, 1e-12)
    fields = rep.csv_row().split(",")
    assert len(fields) == 4
    assert int(fields[0]) == rep.degree
    assert float(fields[1]) == rep.max_error
    assert float(fields[2]) == rep.norm_estimate
    assert float(fields[3]) == rep.tol


# ---------------------------------------------------------------------------
# the process-wide fit memo
# ---------------------------------------------------------------------------

def _fresh_phi_pair(mu, T=T, alpha=1e-4, beta=1.0):
    """The Phi pair built from scratch, sharing no object with _phi_pair."""
    big_psi = sym.const(alpha) + sym.const(beta) * sym.segment_integral(
        T / 3, 2 * T / 3, 2)
    denom = sym.const(mu) * sym.expm(2 * T) + big_psi
    return [(sym.const(mu) * sym.expm(2 * T)) / denom, sym.expm(T) / denom]


def _count_fits(monkeypatch):
    """Start an empty memo; return the list of fits computed from now on."""
    monkeypatch.setattr(rat, "_fit_memo", OrderedDict())
    calls = []
    for name in ("fit_rational", "fit_rational_shared"):
        def counted(gs, d, tol, _fit=getattr(rat, name)):
            calls.append((gs, d, tol))
            return _fit(gs, d, tol)
        monkeypatch.setattr(rat, name, counted)
    return calls


def test_symbol_key_is_structural():
    a, b = _fresh_phi_pair(1e3), _fresh_phi_pair(1e3)
    assert a[0] is not b[0]
    assert [g.key for g in a] == [g.key for g in b]
    a[0](np.array([0.0, -1e-9]))          # fills the Laurent cache of a[0]
    assert a[0].key == b[0].key
    for other in (_fresh_phi_pair(1e3 * (1 + 1e-15)), _fresh_phi_pair(1e3, T=0.02),
                  _fresh_phi_pair(1e3, alpha=2e-4), _fresh_phi_pair(1e3, beta=0.5)):
        assert other[0].key != a[0].key
    assert sym.const(2.0).key != sym.expm(2.0).key
    assert sym.segment_integral(0.1, 0.2, 1).key != sym.segment_integral(0.1, 0.2, 2).key


def test_fit_memo_hits_on_equal_keys_only(monkeypatch):
    calls = _count_fits(monkeypatch)
    fits, rep = rat.fit_cached(_fresh_phi_pair(1e3), ctl.DEGREE_CAP, 1e-12)
    assert rep.success and len(calls) == 1
    assert rat.fit_cached(_fresh_phi_pair(1e3), ctl.DEGREE_CAP, 1e-12)[0] is fits
    assert len(calls) == 1
    for gs, d, tol in ((_fresh_phi_pair(2e3), ctl.DEGREE_CAP, 1e-12),
                       (_fresh_phi_pair(1e3), ctl.DEGREE_CAP, 1e-10),
                       (_fresh_phi_pair(1e3), ctl.DEGREE_CAP - 1, 1e-12)):
        rat.fit_cached(gs, d, tol)
    assert len(calls) == 4
    # one symbol and a one-symbol shared fit are different fits
    g = sym.expm(T)
    rat.fit_cached(g, 24, 1e-12)
    rat.fit_cached([g], 24, 1e-12)
    assert len(calls) == 6


def test_fit_memo_hit_is_bit_identical_to_fresh_fit():
    for fit, gs, d in ((rat.fit_rational_shared, _fresh_phi_pair(1e3), ctl.DEGREE_CAP),
                       (rat.fit_rational, sym.segment_integral(T / 3, T / 2, 1), 32)):
        rat.fit_cached(gs, d, 1e-12)
        hit, hit_rep = rat.fit_cached(gs, d, 1e-12)
        fresh, fresh_rep = fit(gs, d, 1e-12)
        if fit is rat.fit_rational:
            hit, fresh = [hit], [fresh]
        assert hit_rep == fresh_rep
        assert len(hit) == len(fresh)
        for h, f in zip(hit, fresh):
            assert (h.r0, h.poles, h.residues) == (f.r0, f.poles, f.residues)
            assert np.array_equal(h(rat._VALID), f(rat._VALID))


def test_fit_memo_is_a_bounded_lru(monkeypatch):
    calls = _count_fits(monkeypatch)
    n = rat._MEMO_SIZE
    for c in range(1, n + 11):            # constants fit exactly at degree 0
        rat.fit_cached(sym.const(float(c)), 0, 1e-12)
    assert len(rat._fit_memo) == n and len(calls) == n + 10
    rat.fit_cached(sym.const(11.0), 0, 1e-12)       # oldest kept: a hit
    rat.fit_cached(sym.const(0.5), 0, 1e-12)        # evicts 12, not 11
    assert len(rat._fit_memo) == n and len(calls) == n + 11
    rat.fit_cached(sym.const(11.0), 0, 1e-12)
    assert len(calls) == n + 11
    rat.fit_cached(sym.const(12.0), 0, 1e-12)
    rat.fit_cached(sym.const(1.0), 0, 1e-12)
    assert len(calls) == n + 13
