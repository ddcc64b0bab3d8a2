"""Scalar symbols g(lambda) on the half-line (-inf, 0].

A symbol is an expression tree over the primitives {constant, lambda,
1/lambda, exp(a*lambda) with a >= 0} closed under sum, product and
quotient.  Every symbol of this class that is bounded on (-inf, 0] has at
worst removable singularities at lambda = 0; evaluation switches to a
truncated Laurent/Taylor expansion about 0 for |lambda| < SERIES_CUTOFF so
that cancellation-prone forms like (exp(b*lam) - exp(a*lam))/lam stay
accurate through the origin.
"""

from __future__ import annotations

import math

import numpy as np

SERIES_CUTOFF = 1e-6
NTERMS = 8


class SymbolError(ValueError):
    pass


def _laurent_add(a, b):
    (ma, ca), (mb, cb) = a, b
    m = min(ma, mb)
    out = np.zeros(NTERMS)
    out[ma - m:] += ca[: NTERMS - (ma - m)]
    out[mb - m:] += cb[: NTERMS - (mb - m)]
    return _laurent_trim((m, out))


def _laurent_mul(a, b):
    (ma, ca), (mb, cb) = a, b
    conv = np.convolve(ca, cb)[:NTERMS]
    out = np.zeros(NTERMS)
    out[: len(conv)] = conv
    return _laurent_trim((ma + mb, out))


def _laurent_div(a, b):
    (ma, ca), (mb, cb) = a, b
    if not np.any(cb):
        raise SymbolError("division by identically-zero symbol")
    scale = np.max(np.abs(cb))
    lead = int(np.argmax(np.abs(cb) > 1e-14 * scale))
    mb += lead
    cb = np.concatenate([cb[lead:], np.zeros(lead)])
    q = np.zeros(NTERMS)
    rem = ca.astype(float).copy()
    for k in range(NTERMS):
        q[k] = rem[k] / cb[0]
        rem[k:] -= q[k] * cb[: NTERMS - k]
    return _laurent_trim((ma - mb, q))


def _laurent_trim(a):
    m, c = a
    # drop leading coefficients that are exactly zero (keeps pole order honest)
    while m < 0 and c[0] == 0.0:
        m += 1
        c = np.concatenate([c[1:], [0.0]])
    return (m, c)


class SymbolExpr:
    """Base class; subclasses implement _value (direct) and _laurent."""

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=float)
        scalar = lam.ndim == 0
        lam = np.atleast_1d(lam)
        out = np.empty_like(lam)
        small = np.abs(lam) < SERIES_CUTOFF
        if np.any(~small):
            out[~small] = self._value(lam[~small])
        if np.any(small):
            m, c = self.laurent()
            if m >= 0:
                ls = lam[small]
                vals = np.zeros_like(ls)
                for k in range(NTERMS - 1, -1, -1):
                    vals = vals * ls + c[k]
                out[small] = vals * ls**m if m > 0 else vals
            else:
                ls = lam[small]
                if np.any(ls == 0.0):
                    raise SymbolError("symbol has a pole at lambda = 0")
                out[small] = self._value(ls)
        return float(out[0]) if scalar else out

    @property
    def key(self):
        """Structural identity: the class name and the fields, recursively.

        Separately built symbols with equal keys are the same function, so
        the key can stand for the symbol in a cache of its fits.
        """
        return (type(self).__name__,) + tuple(
            v.key if isinstance(v, SymbolExpr) else v
            for k, v in vars(self).items() if k != "_laurent_cache")

    def laurent(self):
        if not hasattr(self, "_laurent_cache"):
            self._laurent_cache = self._laurent()
        return self._laurent_cache

    def limit_at_minus_inf(self):
        """Value of g(lambda) as lambda -> -inf (exists for bounded symbols)."""
        v1 = self._value(np.array([-1e12]))[0]
        v2 = self._value(np.array([-1e15]))[0]
        if not (np.isfinite(v1) and np.isfinite(v2)):
            raise SymbolError("symbol unbounded as lambda -> -inf")
        return v2

    # -- algebra --------------------------------------------------------
    def __add__(self, other):
        return Sum(self, _wrap(other))

    def __radd__(self, other):
        return Sum(_wrap(other), self)

    def __sub__(self, other):
        return Sum(self, Prod(Const(-1.0), _wrap(other)))

    def __rsub__(self, other):
        return Sum(_wrap(other), Prod(Const(-1.0), self))

    def __mul__(self, other):
        return Prod(self, _wrap(other))

    def __rmul__(self, other):
        return Prod(_wrap(other), self)

    def __truediv__(self, other):
        return Quot(self, _wrap(other))

    def __rtruediv__(self, other):
        return Quot(_wrap(other), self)

    def __neg__(self):
        return Prod(Const(-1.0), self)


def _wrap(x):
    if isinstance(x, SymbolExpr):
        return x
    return Const(float(x))


class Const(SymbolExpr):
    def __init__(self, c):
        self.c = float(c)

    def _value(self, lam):
        return np.full_like(lam, self.c)

    def _laurent(self):
        c = np.zeros(NTERMS)
        c[0] = self.c
        return (0, c)


class Ident(SymbolExpr):
    def _value(self, lam):
        return lam

    def _laurent(self):
        c = np.zeros(NTERMS)
        c[1] = 1.0
        return (0, c)


class Recip(SymbolExpr):
    def _value(self, lam):
        return 1.0 / lam

    def _laurent(self):
        c = np.zeros(NTERMS)
        c[0] = 1.0
        return (-1, c)


class Exp(SymbolExpr):
    """exp(a*lambda) with a >= 0, so the factor is <= 1 on the half-line."""

    def __init__(self, a):
        a = float(a)
        if a < 0:
            raise SymbolError("exponential rate must be >= 0 on (-inf, 0]")
        self.a = a

    def _value(self, lam):
        return np.exp(self.a * lam)

    def _laurent(self):
        c = np.array([self.a**k / math.factorial(k) for k in range(NTERMS)])
        return (0, c)


class Sum(SymbolExpr):
    def __init__(self, f, g):
        self.f, self.g = f, g

    def _value(self, lam):
        return self.f._value(lam) + self.g._value(lam)

    def _laurent(self):
        return _laurent_add(self.f.laurent(), self.g.laurent())


class Prod(SymbolExpr):
    def __init__(self, f, g):
        self.f, self.g = f, g

    def _value(self, lam):
        return self.f._value(lam) * self.g._value(lam)

    def _laurent(self):
        return _laurent_mul(self.f.laurent(), self.g.laurent())


class Quot(SymbolExpr):
    def __init__(self, f, g):
        self.f, self.g = f, g

    def _value(self, lam):
        return self.f._value(lam) / self.g._value(lam)

    def _laurent(self):
        return _laurent_div(self.f.laurent(), self.g.laurent())


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
    expm1 so the difference of nearby exponentials never cancels; the value
    at lambda = 0 is b - a.
    """

    def __init__(self, a, b, scale):
        if not 0 <= a < b:
            raise SymbolError(f"need 0 <= a < b, got a={a}, b={b}")
        if scale not in (1, 2):
            raise SymbolError(f"scale must be 1 or 2, got {scale}")
        self.a, self.b, self.scale = float(a), float(b), float(scale)

    def _value(self, lam):
        s = self.scale
        return np.exp(s * self.a * lam) * np.expm1(s * (self.b - self.a) * lam) \
            / (s * lam)

    def _laurent(self):
        s, a, b = self.scale, self.a, self.b
        c = np.array([s**k * (b ** (k + 1) - a ** (k + 1)) / math.factorial(k + 1)
                      for k in range(NTERMS)])
        return (0, c)


def segment_integral(a, b, scale):
    return SegmentIntegral(a, b, scale)
