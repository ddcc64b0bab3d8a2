"""Scalar symbols g(lambda) on the half-line (-inf, 0].

A symbol is an expression tree over the primitives {constant, lambda,
1/lambda, exp(a*lambda) with a >= 0} closed under sum, product and
quotient.  Symbols are evaluated directly, node by node.  A pole of 1/lambda
or a quotient whose denominator is exactly zero raises SymbolError, so a
removable singularity of the generic algebra fails at lambda = 0 (a point of
every fit's sampling grid) rather than returning nan.  A form that cancels
near 0, such as (exp(b*lam) - exp(a*lam))/lam, needs its own class with an
expm1 form and its exact value at lambda = 0, as SegmentIntegral has.
SourceResponseIntegral, the double time integral that weights a source
segment in psi, takes a Gauss rule where its closed form cancels.
"""

from __future__ import annotations

import numpy as np


class SymbolError(ValueError):
    pass


class SymbolExpr:
    """Base class; subclasses implement _value, which evaluates the symbol
    directly, elementwise on a float array.

    A subclass whose direct form cancels near lambda = 0 evaluates an expm1
    form there and returns its exact value at 0.
    """

    def __call__(self, lam):
        out = self._value(np.array(lam, dtype=float, ndmin=1))
        return float(out[0]) if np.ndim(lam) == 0 else out

    @property
    def key(self):
        """Structural identity: the class name and the fields, recursively.

        Separately built symbols with equal keys are the same function, so
        the key can stand for the symbol in a cache of its fits.
        """
        return (type(self).__name__,) + tuple(
            v.key if isinstance(v, SymbolExpr) else v for v in vars(self).values())

    # -- algebra --------------------------------------------------------
    def __add__(self, other):
        return Sum(self, _wrap(other))

    def __sub__(self, other):
        return Sum(self, Prod(Const(-1.0), _wrap(other)))

    def __mul__(self, other):
        return Prod(self, _wrap(other))

    def __truediv__(self, other):
        return Quot(self, _wrap(other))


def _wrap(x):
    if isinstance(x, SymbolExpr):
        return x
    return Const(float(x))


class Const(SymbolExpr):
    def __init__(self, c):
        self.c = float(c)

    def _value(self, lam):
        return np.full_like(lam, self.c)


class Ident(SymbolExpr):
    def _value(self, lam):
        return lam


class Recip(SymbolExpr):
    def _value(self, lam):
        if np.any(lam == 0.0):
            raise SymbolError("symbol has a pole at lambda = 0")
        return 1.0 / lam


class Exp(SymbolExpr):
    """exp(a*lambda) with a >= 0, so the factor is <= 1 on the half-line."""

    def __init__(self, a):
        a = float(a)
        if a < 0:
            raise SymbolError("exponential rate must be >= 0 on (-inf, 0]")
        self.a = a

    def _value(self, lam):
        return np.exp(self.a * lam)


class Sum(SymbolExpr):
    def __init__(self, f, g):
        self.f, self.g = f, g

    def _value(self, lam):
        return self.f._value(lam) + self.g._value(lam)


class Prod(SymbolExpr):
    def __init__(self, f, g):
        self.f, self.g = f, g

    def _value(self, lam):
        return self.f._value(lam) * self.g._value(lam)


class Quot(SymbolExpr):
    def __init__(self, f, g):
        self.f, self.g = f, g

    def _value(self, lam):
        den = self.g._value(lam)
        if np.any(den == 0.0):
            raise SymbolError("quotient denominator vanishes on the grid")
        return self.f._value(lam) / den


def const(c):
    return Const(c)


def ident():
    return Ident()


def recip():
    return Recip()


def expm(a):
    return Exp(a)


class SegmentIntegral(SymbolExpr):
    """int_a^b exp(scale*t*lambda) dt = (e^{s b lam} - e^{s a lam})/(s lam).

    Equal to the generic quotient of exponentials but evaluated through
    expm1 so the difference of nearby exponentials never cancels; at
    lambda = 0 it takes its exact limit b - a.
    """

    def __init__(self, a, b, scale):
        if not 0 <= a < b:
            raise SymbolError(f"need 0 <= a < b, got a={a}, b={b}")
        if scale not in (1, 2):
            raise SymbolError(f"scale must be 1 or 2, got {scale}")
        self.a, self.b, self.scale = float(a), float(b), float(scale)

    def _value(self, lam):
        s, h = self.scale, self.b - self.a
        x = s * h * lam
        e = np.exp(s * self.a * lam)
        # expm1(x)/x rounds to 1 for |x| < eps, so there the value is h*e: b - a
        # at lambda = 0, and no 0/0 or subnormal quotient at lambda near 0
        out = h * e
        far = np.abs(x) >= np.finfo(float).eps
        out[far] = e[far] * np.expm1(x[far]) / (s * lam[far])
        return out


def segment_integral(a, b, scale):
    return SegmentIntegral(a, b, scale)


_GL16 = np.polynomial.legendre.leggauss(16)


class SourceResponseIntegral(SymbolExpr):
    """int_a^b int_c^{min(d,t)} exp((2t - tau)*lambda) dtau dt, for t > c.

    The weight of a source segment [c, d] in psi over the beta segment
    [a, b]: int_a^b S_t int_c^{min(d,t)} S_{t-tau} f dtau dt = G(A) f.  The
    domain splits at t = d.  Over the rectangle t in [m, b], m = max(a, d),
    tau in [c, d] it is e^{(2m-d) lam} SI(0, b-m, 2) SI(0, d-c, 1), every
    factor bounded.  Over the triangle t in [t1, t2] = [max(a, c), min(b,
    d)], c <= tau <= t it is [SI(2t1-c, 2t2-c, 1)/2 - SI(t1, t2, 1)] / lam
    where |lam| (t2 - c) >= 1; below that the difference cancels, and the
    triangle is int_{t1}^{t2} e^{t lam} SI(0, t-c, 1) dt, the inner integral
    in closed form and the outer one by 16-point Gauss-Legendre in t: there
    the integrand is entire and varies by less than e^2, so the rule is
    exact to rounding, and it costs 16 nodes per point.  SI is
    SegmentIntegral.
    """

    def __init__(self, a, b, c, d):
        if not (0 <= a < b and 0 <= c < d and c < b):
            raise SymbolError(f"need 0 <= a < b, 0 <= c < d and c < b, got "
                              f"a={a}, b={b}, c={c}, d={d}")
        self.a, self.b, self.c, self.d = float(a), float(b), float(c), float(d)

    def _value(self, lam):
        a, b, c, d = self.a, self.b, self.c, self.d
        out = np.zeros_like(lam)
        m = max(a, d)
        if m < b:
            out += np.exp((2 * m - d) * lam) * SegmentIntegral(0.0, b - m, 2)._value(lam) \
                * SegmentIntegral(0.0, d - c, 1)._value(lam)
        t1, t2 = max(a, c), min(b, d)
        if t1 < t2:
            far = np.abs(lam) * (t2 - c) >= 1.0
            lf = lam[far]
            out[far] += (0.5 * SegmentIntegral(2 * t1 - c, 2 * t2 - c, 1)._value(lf)
                         - SegmentIntegral(t1, t2, 1)._value(lf)) / lf
            ln = lam[~far]
            near = np.zeros_like(ln)
            x, w = _GL16
            for t, wt in zip(t1 + 0.5 * (t2 - t1) * (1.0 + x), 0.5 * (t2 - t1) * w):
                near += wt * np.exp(t * ln) * SegmentIntegral(0.0, t - c, 1)._value(ln)
            out[~far] += near
        return out


def source_response_integral(a, b, c, d):
    return SourceResponseIntegral(a, b, c, d)
