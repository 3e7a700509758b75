"""Sparse exact multivariate polynomials over Rational or KPoly coefficients.

Monomials are exponent tuples of fixed length (one entry per state
variable).  The canonical term order is graded lexicographic with
x1 > x2 > ... > xn, so homogeneous blocks are contiguous and printing,
hashing and report output are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .coefficients import KPoly

Monomial = Tuple[int, ...]


def monomial_degree(mono: Monomial) -> int:
    return sum(mono)


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
        clean: Dict[Monomial, object] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars:
                    raise ValueError("monomial %r has wrong arity for %d variables" % (mono, nvars))
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise ValueError("variable index %d out of range" % index)
        mono = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {mono: 1})

    @classmethod
    def from_monomial(cls, nvars: int, mono: Monomial) -> "MultiPoly":
        return cls(nvars, {tuple(mono): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {monomial_degree(m) for m in self.terms}
        return len(degrees) <= 1

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
        if isinstance(other, (int, Fraction, KPoly)):
            return self == MultiPoly.constant(self.nvars, other)
        return NotImplemented

    __hash__ = None  # mutable dict inside; value identity is by __eq__

    # -- ring operations ---------------------------------------------------

    def _as_poly(self, other) -> Optional["MultiPoly"]:
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch: %d vs %d" % (self.nvars, other.nvars))
            return other
        if isinstance(other, (int, Fraction, KPoly)):
            return MultiPoly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            if mono in out:
                s = out[mono] + coeff
                if s:
                    out[mono] = s
                else:
                    del out[mono]
            else:
                out[mono] = coeff
        result = MultiPoly(self.nvars)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = MultiPoly(self.nvars)
        result.terms = {m: -c for m, c in self.terms.items()}
        return result

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        out: Dict[Monomial, object] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = monomial_mul(ma, mb)
                prod = ca * cb
                if mono in out:
                    s = out[mono] + prod
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
                elif prod:
                    out[mono] = prod
        result = MultiPoly(self.nvars)
        result.terms = out
        return result

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
        result = MultiPoly(self.nvars)
        result.terms = out
        return result

    def restrict(self, var_index: int, value) -> "MultiPoly":
        """Substitute x[var_index] = value; the variable count is preserved."""
        if not 0 <= var_index < self.nvars:
            raise ValueError("variable index %d out of range" % var_index)
        out = MultiPoly.zero(self.nvars)
        for mono, coeff in self.terms.items():
            e = mono[var_index]
            if e == 0:
                out += MultiPoly(self.nvars, {mono: coeff})
            else:
                scaled = coeff * (Fraction(value) ** e)
                if scaled:
                    flat = mono[:var_index] + (0,) + mono[var_index + 1:]
                    out += MultiPoly(self.nvars, {flat: scaled})
        return out

    def homogeneous_components(self) -> List["MultiPoly"]:
        """Split into homogeneous parts, ascending in degree; [] for 0."""
        buckets: Dict[int, Dict[Monomial, object]] = {}
        for mono, coeff in self.terms.items():
            buckets.setdefault(monomial_degree(mono), {})[mono] = coeff
        return [MultiPoly(self.nvars, buckets[d]) for d in sorted(buckets)]

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

    def to_text(self, var_names: Optional[Sequence[str]] = None) -> str:
        if not self.terms:
            return "0"
        names = list(var_names) if var_names else ["x%d" % (i + 1) for i in range(self.nvars)]
        pieces = []
        for mono, coeff in self.ordered_terms():
            var_part = "*".join(
                n if e == 1 else "%s^%d" % (n, e)
                for n, e in zip(names, mono)
                if e
            )
            if isinstance(coeff, KPoly):
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

