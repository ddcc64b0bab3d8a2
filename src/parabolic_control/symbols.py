"""Scalar symbols g(lambda) on the half-line (-inf, 0].

A symbol is an expression tree over the primitives {constant, lambda,
1/lambda, exp(a*lambda) with a >= 0} closed under sum, product and
quotient.  Symbols are evaluated directly, node by node.  A pole of 1/lambda
or a quotient whose denominator is exactly zero raises SymbolError, so a
removable singularity of the generic algebra fails at lambda = 0 (a point of
every fit's sampling grid) rather than returning nan.  A form that cancels
near 0, such as (exp(b*lam) - exp(a*lam))/lam, needs its own class with an
expm1 form and its exact value at lambda = 0, as SegmentIntegral has.
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
