"""Sparse exact multivariate polynomials over Fraction or int coefficients.

A monomial x1^e1 ... xn^en is kept as one packed int, its key:
deg * 2^(n*W) + sum_i e_i * 2^((n-i)*W), deg = e1 + ... + en, one W-bit
field per exponent below the degree.  Every degree is below 2^W, so no
field carries into the next, and int order on keys is the canonical term
order, graded lexicographic with x1 > x2 > ... > xn: homogeneous blocks are
contiguous, and printing, hashing and report output are deterministic.
The key of a product of monomials is the sum of their keys, and x_i has a
fixed unit key, so d/dx_i subtracts that key and reads one field.  A
product or power of degree 2^W or more raises OverflowError.

The layout stays in this module, and so does lie_derivative, whose loop
subtracts unit keys and reads fields.  ``terms`` is the one dict of a
polynomial's terms, keyed by this key; ``unpack`` gives a key's exponents.
``MultiPoly(n, {mono: c})``, the term c*x^mono, takes exponent tuples of
non-negative ints.  ``MultiPoly(n)`` is the zero polynomial in n
variables, and a polynomial is false exactly when it is zero.
``to_text`` prints a coefficient that is neither an int nor a Fraction in
parentheses: "(c0 + c1*k)" for a polynomial at symbolic k.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Monomial = Tuple[int, ...]

W = 32
MASK = (1 << W) - 1


def pack(mono: Sequence[int]) -> int:
    """The key of an exponent tuple."""
    key = 0
    for e in mono:
        if not isinstance(e, int) or e < 0:
            raise ValueError("monomial %r has an exponent that is not a non-negative int" % (mono,))
        key = key << W | e
    degree = sum(mono)
    if degree >> W:
        raise OverflowError("monomial %r has degree %d, not below 2^%d" % (mono, degree, W))
    return degree << len(mono) * W | key


def unpack(key: int, nvars: int) -> Monomial:
    """The exponent tuple of a key of nvars variables."""
    return tuple([key >> shift & MASK for shift, _ in variable_fields(nvars)])


def leading_exponents(keys: Iterable[int], nvars: int, count: int) -> List[Monomial]:
    """The exponents of x1..x_count in each key of nvars variables.  A key
    shifted right past x_count's field holds the degree and those exponents
    alone, so each distinct shifted key is decoded once."""
    heads = [key >> (nvars - count) * W for key in keys]
    decoded = {head: unpack(head, count) for head in set(heads)}
    return [decoded[head] for head in heads]


@lru_cache(maxsize=None)
def variable_fields(nvars: int) -> Tuple[Tuple[int, int], ...]:
    """(shift, unit) of x1..xn: x_i's exponent in a key is key >> shift & MASK,
    and unit is the key of x_i."""
    return tuple(((nvars - 1 - i) * W, 1 << nvars * W | 1 << (nvars - 1 - i) * W) for i in range(nvars))


def variable_field(nvars: int, index: int) -> Tuple[int, int]:
    """(shift, unit) of x_index, as in variable_fields."""
    if not 0 <= index < nvars:
        raise ValueError("variable index %d out of range" % index)
    return variable_fields(nvars)[index]


def monomials(nvars: int, degree: int) -> List[int]:
    """The keys of every degree-m monomial in nvars variables, largest first."""
    if nvars < 1 or not 0 <= degree < 1 << W:
        raise ValueError("need nvars >= 1 and 0 <= degree < 2^%d" % W)
    heads = [(degree << nvars * W, degree)]  # (key so far, degree left)
    for shift in range((nvars - 1) * W, 0, -W):
        heads = [(key + (e << shift), left - e) for key, left in heads for e in range(left, -1, -1)]
    return [key + left for key, left in heads]


class MultiPoly:
    """Sparse polynomial: dict from monomial key to nonzero coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Dict[Monomial, object]] = None):
        self.nvars = nvars
        self.terms: Dict[int, object] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError("monomial %r has wrong arity for %d variables" % (mono, nvars))
            key = pack(mono)
            if coeff:
                self.terms[key] = coeff

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, terms: Dict[int, object]) -> "MultiPoly":
        """A polynomial that takes over a dict of terms keyed by packed
        monomial; zero coefficients are dropped here, once.

        Each operation keeps every key it computes in that dict, even at a
        zero sum, and a sum of keys has a degree field of 2^W or more
        exactly when its monomial has that degree, so the largest key
        tells whether any monomial overflowed.
        """
        if terms and max(terms) >> (nvars + 1) * W:
            raise OverflowError("a monomial of degree 2^%d or more" % W)
        result = cls.__new__(cls)
        result.nvars = nvars
        result.terms = terms if all(terms.values()) else {key: c for key, c in terms.items() if c}
        return result

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls._of(nvars, {0: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        return cls._of(nvars, {variable_field(nvars, index)[1]: 1})

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[max(self.terms)]

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
        for key, coeff in other.terms.items():
            out[key] = out[key] + coeff if key in out else coeff
        return MultiPoly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.nvars, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        out: Dict[int, object] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = ka + kb
                if key in out:
                    out[key] += ca * cb
                else:
                    out[key] = ca * cb
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
        return MultiPoly._of(self.nvars, {key: fn(c) for key, c in self.terms.items()})

    # -- calculus and substitution ----------------------------------------

    def partial_derivative(self, var_index: int) -> "MultiPoly":
        shift, unit = variable_field(self.nvars, var_index)
        out: Dict[int, object] = {}
        for key, coeff in self.terms.items():
            e = key >> shift & MASK
            if e:
                out[key - unit] = coeff * e
        return MultiPoly._of(self.nvars, out)

    def evaluate(self, point: Sequence):
        """Exact (or float, if the point is float) evaluation."""
        if len(point) != self.nvars:
            raise ValueError("point has %d entries, expected %d" % (len(point), self.nvars))
        total = 0
        for key, value in self.terms.items():
            for x, e in zip(point, unpack(key, self.nvars)):
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
        for key, coeff in sorted(self.terms.items(), reverse=True):
            var_part = "*".join(
                n if e == 1 else "%s^%d" % (n, e)
                for n, e in zip(names, unpack(key, self.nvars))
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


def lie_derivative(X: Sequence[MultiPoly], p: MultiPoly) -> MultiPoly:
    """sum_i X_i * dp/dx_i, computed exactly.

    Expanded term by term into one dict of keys: a term c*x^a of p with
    a_i > 0 meets each term d*x^b of X_i in d*a_i*c * x^(a-e_i+b), whose key
    is key(a) - key(x_i) + key(b).  Zero sums are dropped once, at the end.
    """
    n = p.nvars
    if n != len(X):
        raise ValueError("variable count mismatch")
    out: Dict[int, object] = {}
    for a, c in p.terms.items():
        for (shift, unit), comp in zip(variable_fields(n), X):
            e = a >> shift & MASK
            if e:
                lowered = a - unit
                ce = c * e
                for b, d in comp.terms.items():
                    mono = lowered + b
                    if mono in out:
                        out[mono] += d * ce
                    else:
                        out[mono] = d * ce
    return MultiPoly._of(n, out)
