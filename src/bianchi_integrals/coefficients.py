"""Exact scalar arithmetic: arbitrary-precision rationals and dense
univariate polynomials in the equation-of-state parameter k.

Rationals are ``fractions.Fraction`` values (always reduced, positive
denominator, canonical zero).  ``KPoly`` supplies the symbolic-k
coefficient ring used when identities must hold for every k at once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


class KPoly:
    """Dense univariate polynomial in k over the rationals.

    ``coeffs[i]`` is the coefficient of ``k**i``; trailing zeros are
    stripped so the degree is canonical.  Instances are immutable by
    convention and support mixed arithmetic with ints and Fractions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, value) -> "KPoly":
        return cls((Fraction(value),))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("KPoly", self.coeffs))

    def __neg__(self) -> "KPoly":
        return KPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return KPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return KPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return KPoly(out)

    __rmul__ = __mul__

    def __call__(self, kval):
        """Horner-style exact evaluation at k = kval."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * kval + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("k" if c == 1 else "%s*k" % c)
            else:
                parts.append("k^%d" % i if c == 1 else "%s*k^%d" % (c, i))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return "KPoly(%r)" % (self.coeffs,)


def _coerce(value):
    if isinstance(value, KPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return KPoly((Fraction(value),))
    return NotImplemented


# (k - 1)/4 and (k - 1)/2, the two k-coefficients the Bianchi build needs.
K_MINUS_1_OVER_4 = KPoly((Fraction(-1, 4), Fraction(1, 4)))
K_MINUS_1_OVER_2 = KPoly((Fraction(-1, 2), Fraction(1, 2)))
