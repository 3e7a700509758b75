"""Exact scalars: rationals and symbolic k.

Rationals are ``fractions.Fraction`` values (always reduced, positive
denominator, canonical zero).  k enters each Bianchi system only through
(k-1)/4 and the energy weight only through (k-1)/2, so everything built
at symbolic k is affine in k and is fixed by its values at the two k of
``SYMBOLIC_K``.  ``KPoly`` only prints the coefficients c0 + c1*k of such
a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

# Symbolic k is the model at these two k: c0 = v(0) and c1 = v(1) - v(0).
# k = 1 is outside the paper's range, but building a field there is only algebra.
SYMBOLIC_K = (Fraction(0), Fraction(1))


class KPoly:
    """The text form of a polynomial in k with rational coefficients.

    ``coeffs[i]`` is the coefficient of ``k**i``; trailing zeros are
    stripped so the degree is canonical.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # bench/tracer.py wraps cls.__dict__["__mul__"], so the product stays until that hook goes.
    def __mul__(self, other: "KPoly") -> "KPoly":
        out = [Fraction(0)] * max(len(self.coeffs) + len(other.coeffs) - 1, 0)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return KPoly(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        names = ["", "k"] + ["k^%d" % i for i in range(2, len(self.coeffs))]
        parts = [str(c) if not i else names[i] if c == 1 else "%s*%s" % (c, names[i])
                 for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) or "0"
