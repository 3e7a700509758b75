"""Sparse exact multivariate polynomials over Fraction or int coefficients.

Monomials are exponent tuples of fixed length (one entry per state
variable).  The canonical term order is graded lexicographic with
x1 > x2 > ... > xn, so homogeneous blocks are contiguous and printing,
hashing and report output are deterministic.

``MultiPoly(n)`` is the zero polynomial in n variables, ``MultiPoly(n,
{mono: c})`` the term c*x^mono, and a polynomial is false exactly when it
is zero.  ``to_text`` prints a coefficient that is neither an int nor a
Fraction in parentheses: "(c0 + c1*k)" for a polynomial at symbolic k.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Monomial = Tuple[int, ...]


def monomial_key(mono: Monomial):
    """Sort key realizing graded lex with x1 > x2 > ... > xn."""
    return (sum(mono), mono)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(i + j for i, j in zip(a, b))


class MultiPoly:
    """Sparse polynomial: dict from exponent tuple to nonzero coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[Monomial, object]] = None):
        self.nvars = nvars
        self.terms: Dict[Monomial, object] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError("monomial %r has wrong arity for %d variables" % (mono, nvars))
            if coeff:
                self.terms[mono] = coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, terms: Dict[Monomial, object]) -> "MultiPoly":
        """A polynomial from terms whose monomials are already checked; zero
        coefficients are dropped here, once."""
        result = cls.__new__(cls)
        result.nvars = nvars
        result.terms = {mono: c for mono, c in terms.items() if c}
        return result

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError("variable index %d out of range" % index)
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: 1})

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def ordered_terms(self) -> List[Tuple[Monomial, object]]:
        """Terms in canonical order, largest monomial first."""
        return [(m, self.terms[m]) for m in sorted(self.terms, key=monomial_key, reverse=True)]

    def leading_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[max(self.terms, key=monomial_key)]

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    __hash__ = None  # mutable dict inside; value identity is by __eq__

    # -- ring operations ---------------------------------------------------

    def _as_poly(self, other) -> Optional["MultiPoly"]:
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch: %d vs %d" % (self.nvars, other.nvars))
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out[mono] + coeff if mono in out else coeff
        return MultiPoly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        out: Dict[Monomial, object] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = monomial_mul(ma, mb)
                if mono in out:
                    out[mono] += ca * cb
                else:
                    out[mono] = ca * cb
        return MultiPoly._of(self.nvars, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return self * (Fraction(1) / Fraction(scalar))
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def map_coefficients(self, fn) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: fn(c) for m, c in self.terms.items()})

    # -- calculus and substitution ----------------------------------------

    def partial_derivative(self, var_index: int) -> "MultiPoly":
        if not 0 <= var_index < self.nvars:
            raise ValueError("variable index %d out of range" % var_index)
        out: Dict[Monomial, object] = {}
        for mono, coeff in self.terms.items():
            e = mono[var_index]
            if e:
                lowered = mono[:var_index] + (e - 1,) + mono[var_index + 1:]
                out[lowered] = coeff * e
        return MultiPoly._of(self.nvars, out)

    def evaluate(self, point: Sequence):
        """Exact (or float, if the point is float) evaluation."""
        if len(point) != self.nvars:
            raise ValueError("point has %d entries, expected %d" % (len(point), self.nvars))
        total = 0
        for mono, value in self.terms.items():
            for x, e in zip(point, mono):
                if e:
                    value = value * x ** e
            total = total + value
        return total

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        names = ["x%d" % (i + 1) for i in range(self.nvars)]
        pieces = []
        for mono, coeff in self.ordered_terms():
            var_part = "*".join(
                n if e == 1 else "%s^%d" % (n, e)
                for n, e in zip(names, mono)
                if e
            )
            if not isinstance(coeff, (int, Fraction)):
                body = "(%s)" % coeff
                if var_part:
                    body += "*" + var_part
                pieces.append(("+", body))
            else:
                sign = "-" if coeff < 0 else "+"
                mag = -coeff if coeff < 0 else coeff
                if not var_part:
                    body = str(mag)
                elif mag == 1:
                    body = var_part
                else:
                    body = "%s*%s" % (mag, var_part)
                pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return "MultiPoly(%d, %s)" % (self.nvars, self.to_text())

