import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabolic_control import symbols as sym
from parabolic_control.rational import FitError, fit_rational

T = 0.01


def quad_segment(a, b, scale, lam):
    val, _ = scipy.integrate.quad(lambda t: np.exp(scale * t * lam), a, b,
                                  epsabs=1e-15, epsrel=1e-13)
    return val


def test_segment_integral_matches_quadrature_oracle():
    g = sym.segment_integral(T / 3, 2 * T / 3, 2)
    assert abs(g(-1.0) - quad_segment(T / 3, 2 * T / 3, 2, -1.0)) <= 1e-12


@pytest.mark.parametrize("lam", [-1e-9, -1e-6, -1e-3, -0.5, -10.0, -500.0])
@pytest.mark.parametrize("scale", [1, 2])
def test_segment_integral_pointwise(lam, scale):
    g = sym.segment_integral(T / 3, 2 * T / 3, scale)
    want = quad_segment(T / 3, 2 * T / 3, scale, lam)
    assert abs(g(lam) - want) <= 1e-13 * max(1.0, abs(want))


def test_segment_integral_zero_limit():
    a, b = T / 3, 2 * T / 3
    for scale in (1, 2):
        assert sym.segment_integral(a, b, scale)(0.0) == b - a


def test_segment_integral_positive_at_upper_bound():
    g = sym.segment_integral(0.0, T, 2)
    assert g(-0.9) > 0  # integrand positive, any kappa-like point


def test_segment_integral_validation():
    with pytest.raises(sym.SymbolError):
        sym.segment_integral(0.5, 0.2, 1)
    with pytest.raises(sym.SymbolError):
        sym.segment_integral(0.0, 1.0, 3)


def test_series_seam_is_smooth():
    # points near the origin, where the expm1 form must not cancel, agree
    # with quadrature
    g = sym.segment_integral(T / 3, 2 * T / 3, 2)
    for lam in (-9.9e-7, -1.01e-6):
        want = quad_segment(T / 3, 2 * T / 3, 2, lam)
        assert abs(g(lam) - want) <= 1e-15


def test_quotient_removable_singularity_is_rejected():
    # the generic algebra has no limit rule: (exp(a*lam) - 1)/lam fails at
    # lambda = 0, and so does a fit, whose grid contains 0
    g = (sym.expm(0.02) - 1) / sym.ident()
    with pytest.raises(sym.SymbolError):
        g(np.array([-1e-3, 0.0]))
    with pytest.raises(FitError):
        fit_rational(g, 8, 1e-10)


def test_pole_at_zero_rejected():
    g = sym.recip()
    with pytest.raises(sym.SymbolError):
        g(np.array([0.0]))
    assert g(-2.0) == -0.5


def test_exponential_rate_sign_checked():
    with pytest.raises(sym.SymbolError):
        sym.expm(-1.0)


@given(a=st.floats(min_value=0.0, max_value=2.0),
       lam=st.floats(min_value=-100.0, max_value=-1e-12))
@settings(max_examples=40, deadline=None)
def test_exponential_bounded_on_halfline(a, lam):
    assert 0.0 < sym.expm(a)(lam) <= 1.0


@given(lam=st.floats(min_value=-1e4, max_value=0.0))
@example(lam=-5e-324)  # subnormal: (b - a)*lam underflows to 0
@settings(max_examples=40, deadline=None)
def test_algebra_matches_pointwise_arithmetic(lam):
    f = sym.const(2.0) * sym.expm(0.5) + sym.segment_integral(0.1, 0.3, 1)
    want = 2.0 * np.exp(0.5 * lam) + quad_segment(0.1, 0.3, 1, lam)
    assert abs(f(lam) - want) <= 1e-12 * max(1.0, abs(want))


def _source_response_reference(a, b, c, d, lam):
    """The source-response integral in closed form, evaluated with mpmath at
    30 digits beyond the cancellation of its 1/lam^2 form."""
    a, b, c, d = (mpmath.mpf(x) for x in (a, b, c, d))
    m, t1, t2 = max(a, d), max(a, c), min(b, d)
    if lam == 0.0:
        out = (b - m) * (d - c) if m < b else mpmath.mpf(0)
        if t1 < t2:
            out += ((t2 - c) ** 2 - (t1 - c) ** 2) / 2
        return out
    lost = max(0, int(-2 * math.log10(abs(lam) * float(b))))
    with mpmath.workdps(30 + lost):
        lam = mpmath.mpf(lam)
        out = mpmath.mpf(0)
        if m < b:
            out += mpmath.exp((2 * m - d) * lam) * mpmath.expm1(2 * (b - m) * lam) \
                / (2 * lam) * mpmath.expm1((d - c) * lam) / lam
        if t1 < t2:
            out += ((mpmath.exp((2 * t2 - c) * lam) - mpmath.exp((2 * t1 - c) * lam))
                    / (2 * lam) - (mpmath.exp(t2 * lam) - mpmath.exp(t1 * lam)) / lam) / lam
        return +out


# beta segment [T/3, 2T/3] against a source on all of [0, T], before it,
# on it, and from inside it
_LAYOUTS = [(T / 3, 2 * T / 3, 0.0, T), (T / 3, 2 * T / 3, 0.0, T / 3),
            (T / 3, 2 * T / 3, T / 3, 2 * T / 3), (T / 3, 2 * T / 3, T / 2, T)]


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_source_response_integral_matches_mpmath(layout):
    # the closed forms and the Gauss rule below |lam| (t2 - c) = 1 agree with
    # 30 digits to a few ulps, on both sides of that seam too; far out the
    # value underflows to 0 as the reference does.  Relative to the reference
    # the bound grows with |lam| b, the condition number of the exponentials
    g = sym.source_response_integral(*layout)
    lams = [0.0, -1e-300] + [-10.0 ** k for k in range(-8, 5)] + [-1e6, -6e7]
    a, b, c, d = layout
    t1, t2 = max(a, c), min(b, d)
    if t1 < t2:
        lams += [-(1.0 - 1e-6) / (t2 - c), -(1.0 + 1e-6) / (t2 - c)]
    got = g(np.array(lams))
    for lam, val in zip(lams, got):
        want = float(_source_response_reference(*layout, lam))
        assert abs(val - want) <= 1e-15 * max(1.0, abs(lam) * layout[1]) * abs(want) \
            + 1e-300, lam


def test_source_response_integral_validation():
    with pytest.raises(sym.SymbolError):
        sym.source_response_integral(0.2, 0.1, 0.0, 0.1)
    with pytest.raises(sym.SymbolError):
        sym.source_response_integral(0.0, 0.1, 0.1, 0.2)  # source after b
    with pytest.raises(sym.SymbolError):
        sym.source_response_integral(0.0, 0.1, 0.05, 0.05)
