"""Bianchi class A vector fields, Lie derivatives and integral verification.

A model is its tag and k: the tag fixes the sign pattern (n1, n2, n3),
and k is a fixed rational or None for symbolic k.  A vector field on Q^n
is the tuple of its n MultiPoly components, built at one rational k.

Symbolic k is the model at the two k of SYMBOLIC_K.  k enters X only
through (k-1)/4, so for any P the image X(P) is affine in k, and X(P) = 0
for every k exactly when it is 0 at k = 0 and at k = 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Optional, Sequence, Tuple

from .coefficients import K_MINUS_1_OVER_2, K_MINUS_1_OVER_4, SYMBOLIC_K, KPoly
from .multipoly import Monomial, MultiPoly

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


class DivisibilityError(ValueError):
    """A component was expected to be exactly divisible by a coordinate."""


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
    cf = K_MINUS_1_OVER_4(k)
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
    it is, and v(0), v(1/2) print with the coefficients c0 + c1*k of k_parts."""
    if len(values) == 1:
        return values[0].to_text()
    c0, c1 = k_parts(*values)
    return MultiPoly(c0.nvars, {m: KPoly((c0.terms.get(m, 0), c1.terms.get(m, 0)))
                                for m in c0.terms.keys() | c1.terms.keys()}).to_text()


def k_parts(at_0: MultiPoly, at_half: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """The k^0 and k^1 parts c0 = v(0), c1 = 2(v(1/2) - v(0)) of a polynomial v
    affine in k, from its values at SYMBOLIC_K."""
    return at_0, 2 * (at_half - at_0)


def lie_derivative(X: Field, p: MultiPoly) -> MultiPoly:
    """sum_i X_i * dp/dx_i, computed exactly.

    Expanded term by term into one dict: a term c*x^a of p with a_i > 0
    meets each term d*x^b of X_i in d*a_i*c * x^(a-e_i+b).  Zero sums are
    dropped once, at the end.
    """
    if p.nvars != len(X):
        raise ValueError("variable count mismatch")
    out: Dict[Monomial, object] = {}
    for i, comp in enumerate(X):
        comp_terms = comp.terms.items()
        for a, c in p.terms.items():
            e = a[i]
            if e:
                lowered = a[:i] + (e - 1,) + a[i + 1:]
                ce = c * e
                for b, d in comp_terms:
                    mono = tuple(map(add, lowered, b))
                    if mono in out:
                        out[mono] += d * ce
                    else:
                        out[mono] = d * ce
    return MultiPoly._of(p.nvars, out)


def divide_by_variable(p: MultiPoly, var_index: int) -> MultiPoly:
    """Exact quotient p / x[var_index]; raises DivisibilityError otherwise."""
    out = {}
    for mono, coeff in p.terms.items():
        if mono[var_index] == 0:
            raise DivisibilityError(
                "term %r is not divisible by x%d" % (mono, var_index + 1)
            )
        out[mono[:var_index] + (mono[var_index] - 1,) + mono[var_index + 1:]] = coeff
    return MultiPoly(p.nvars, out)


def verify_weighted_power_integral(X: Field, tag: str, k: Fraction):
    """Exact check that the energy integral (x1 x2 x3)^w * F, w = (k-1)/2, is
    a first integral of X, the field of model tag at k.

    Dividing the transcendental prefactor out of dG/dt = 0 leaves the
    polynomial identity

        F * w * sum_{i<=3} (X_i / x_i) + X(F) = 0,

    which is returned together with its left-hand side as witness.  Each
    X_i, i <= 3, must be exactly divisible by x_i; failure raises
    DivisibilityError rather than reporting False.  X_1..X_3 do not depend
    on k, and w and X_4..X_6 are affine in k, so the residual is affine in
    k: if it is zero at both k of SYMBOLIC_K, it is zero in Q[k].
    """
    F = build_F(*BIANCHI_TABLE[tag])
    w = K_MINUS_1_OVER_2(k)
    residual = lie_derivative(X, F)
    for i in range(3):
        residual += (F * divide_by_variable(X[i], i)) * w
    return not residual, residual


def polynomial_integrals(tag: str) -> Tuple[MultiPoly, ...]:
    """The polynomial first integrals each model is known to carry."""
    x = [MultiPoly.variable(NVARS, i) for i in range(NVARS)]
    if tag == "I":
        return (x[3] - x[4], x[3] - x[5])
    if tag == "II":
        return (x[4] - x[5],)
    return ()

