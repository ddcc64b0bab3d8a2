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
