"""Bianchi class A vector fields, Lie derivatives and integral verification.

The Lie derivative X(P), lie_derivative, is defined in multipoly next to
the monomial key layout that its loop reads, and imported here.

A model is its tag and k: the tag fixes the sign pattern (n1, n2, n3),
and k is a fixed rational or None for symbolic k.  A vector field on Q^n
is the tuple of its n MultiPoly components, built at one rational k.

Symbolic k is the model at the two k of SYMBOLIC_K.  k enters X only
through (k-1)/4, so for any P the image X(P) is affine in k, and X(P) = 0
for every k exactly when it is 0 at k = 0 and at k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .coefficients import SYMBOLIC_K, KPoly
from .multipoly import MultiPoly, lie_derivative

NVARS = 6

# Sign patterns of the six class A models.
BIANCHI_TABLE = {
    "I": (0, 0, 0),
    "II": (1, 0, 0),
    "VI0": (1, -1, 0),
    "VII0": (1, 1, 0),
    "VIII": (1, 1, -1),
    "IX": (1, 1, 1),
}

MODEL_TAGS = tuple(BIANCHI_TABLE)


@dataclass(frozen=True)
class BianchiModel:
    """One of the six class A models at a fixed rational k, or symbolic k."""

    tag: str
    k: Optional[Fraction]  # None means symbolic-k mode

    def __post_init__(self):
        if self.tag not in BIANCHI_TABLE:
            raise ValueError("unknown Bianchi tag %r" % (self.tag,))
        if self.k is not None and not 0 <= self.k < 1:
            raise ValueError("k must satisfy 0 <= k < 1, got %s" % self.k)

    @property
    def n(self) -> Tuple[int, int, int]:
        return BIANCHI_TABLE[self.tag]

    @property
    def ks(self) -> Tuple[Fraction, ...]:
        """The k the model is built at: its own, or SYMBOLIC_K."""
        return SYMBOLIC_K if self.k is None else (self.k,)

    def k_text(self) -> str:
        return "symbolic" if self.k is None else str(self.k)

    @cached_property
    def fields(self) -> Tuple[Field, ...]:
        """The model's field at each of its ks, built on the first read."""
        return tuple(build_bianchi(self.tag, k) for k in self.ks)


# A polynomial vector field on Q^n: component i is the i-th right-hand side.
Field = Tuple[MultiPoly, ...]


def build_F(n1: int, n2: int, n3: int) -> MultiPoly:
    """The 6-variable quadratic form attached to a sign pattern."""
    for n in (n1, n2, n3):
        if n not in (-1, 0, 1):
            raise ValueError("sign entries must lie in {-1, 0, 1}, got %r" % (n,))
    x = [MultiPoly.variable(NVARS, i) for i in range(NVARS)]
    return (
        n1 * n1 * x[0] * x[0] + n2 * n2 * x[1] * x[1] + n3 * n3 * x[2] * x[2]
        - 2 * n1 * n2 * x[0] * x[1] - 2 * n1 * n3 * x[0] * x[2] - 2 * n2 * n3 * x[1] * x[2]
        + x[3] * x[3] + x[4] * x[4] + x[5] * x[5]
        - 2 * x[3] * x[4] - 2 * x[4] * x[5] - 2 * x[3] * x[5]
    )


def build_bianchi(tag: str, k: Fraction) -> Field:
    """The quadratic system of model tag at the rational k, with Fraction or int coefficients."""
    n1, n2, n3 = BIANCHI_TABLE[tag]
    x = [MultiPoly.variable(NVARS, i) for i in range(NVARS)]
    F = build_F(n1, n2, n3)
    cf = Fraction(k - 1, 4)
    return (
        x[0] * (-x[3] + x[4] + x[5]),
        x[1] * (x[3] - x[4] + x[5]),
        x[2] * (x[3] + x[4] - x[5]),
        n1 * x[0] * (n1 * x[0] - n2 * x[1] - n3 * x[2]) + cf * F,
        n2 * x[1] * (-n1 * x[0] + n2 * x[1] - n3 * x[2]) + cf * F,
        n3 * x[2] * (-n1 * x[0] - n2 * x[1] + n3 * x[2]) + cf * F,
    )


def text_at(values: Sequence[MultiPoly]) -> str:
    """The text of a polynomial from its values at a model's ks: one value prints as
    it is, and the values v(0), v(1) of a v affine in k print with its
    coefficients c0 + c1*k, c0 = v(0) and c1 = v(1) - v(0)."""
    if len(values) == 1:
        return values[0].to_text()
    c0, at_one = values
    c1 = at_one - c0
    return MultiPoly._of(c0.nvars, {m: KPoly((c0.terms.get(m, 0), c1.terms.get(m, 0)))
                                    for m in c0.terms.keys() | c1.terms.keys()}).to_text()


def verify_weighted_power_integral(X: Field, tag: str, k: Fraction) -> MultiPoly:
    """The residual of the energy integral P^w * F, P = x1 x2 x3, w = (k-1)/2,
    on X, the field of model tag at k: zero exactly when it is a first integral.

    X(P^w * F) = P^(w-1) * (P * X(F) + w * F * X(P)), so the polynomial
    P * X(F) + w * F * X(P) is returned.  X(P) reads only X_1..X_3, which do
    not depend on k, and w and X_4..X_6 are affine in k, so the residual is
    affine in k: if it is zero at k = 0 and k = 1, the two k of SYMBOLIC_K,
    it is zero in Q[k].
    """
    F = build_F(*BIANCHI_TABLE[tag])
    P = MultiPoly(NVARS, {(1, 1, 1, 0, 0, 0): 1})
    return P * lie_derivative(X, F) + Fraction(k - 1, 2) * F * lie_derivative(X, P)


def polynomial_integrals(tag: str) -> Tuple[MultiPoly, ...]:
    """The polynomial first integrals each model is known to carry."""
    x = [MultiPoly.variable(NVARS, i) for i in range(NVARS)]
    if tag == "I":
        return (x[3] - x[4], x[3] - x[5])
    if tag == "II":
        return (x[4] - x[5],)
    return ()

