"""Bianchi class A vector fields, Lie derivatives and integral verification.

Builds the six-component quadratic systems parameterized by the sign
pattern (n1, n2, n3) and the equation-of-state parameter k, either with a
fixed rational k or with symbolic-k (KPoly) coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Optional, Sequence, Tuple

from .coefficients import K_MINUS_1_OVER_2, K_MINUS_1_OVER_4, KPoly
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
    n: Tuple[int, int, int]
    k: Optional[Fraction]  # None means symbolic-k mode

    def __post_init__(self):
        if self.tag not in BIANCHI_TABLE:
            raise ValueError("unknown Bianchi tag %r" % (self.tag,))
        if self.n != BIANCHI_TABLE[self.tag]:
            raise ValueError("sign pattern %r does not match type %s" % (self.n, self.tag))
        if self.k is not None and not 0 <= self.k < 1:
            raise ValueError("k must satisfy 0 <= k < 1, got %s" % self.k)

    @classmethod
    def from_tag(cls, tag: str, k: Optional[Fraction]) -> "BianchiModel":
        return cls(tag, BIANCHI_TABLE.get(tag), k)

    @property
    def symbolic(self) -> bool:
        return self.k is None

    def k_text(self) -> str:
        return "symbolic" if self.k is None else str(self.k)


@dataclass(frozen=True)
class VectorField:
    """Polynomial vector field; component i is the i-th right-hand side."""

    components: Tuple[MultiPoly, ...]

    @property
    def nvars(self) -> int:
        return self.components[0].nvars


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


def build_bianchi(model: BianchiModel) -> VectorField:
    """The quadratic system for the given model.

    Fixed-k mode yields Rational coefficients; symbolic mode coerces every
    coefficient to KPoly so identities are checked in Q[k].
    """
    n1, n2, n3 = model.n
    x = [MultiPoly.variable(NVARS, i) for i in range(NVARS)]
    F = build_F(n1, n2, n3)
    cf = K_MINUS_1_OVER_4 if model.symbolic else K_MINUS_1_OVER_4(model.k)
    comps = [
        x[0] * (-x[3] + x[4] + x[5]),
        x[1] * (x[3] - x[4] + x[5]),
        x[2] * (x[3] + x[4] - x[5]),
        n1 * x[0] * (n1 * x[0] - n2 * x[1] - n3 * x[2]) + cf * F,
        n2 * x[1] * (-n1 * x[0] + n2 * x[1] - n3 * x[2]) + cf * F,
        n3 * x[2] * (-n1 * x[0] - n2 * x[1] + n3 * x[2]) + cf * F,
    ]
    if model.symbolic:
        comps = [
            c.map_coefficients(lambda v: v if isinstance(v, KPoly) else KPoly.constant(v))
            for c in comps
        ]
    return VectorField(tuple(comps))


def lie_derivative(X: VectorField, p: MultiPoly) -> MultiPoly:
    """sum_i X_i * dp/dx_i, computed exactly.

    Expanded term by term into one dict: a term c*x^a of p with a_i > 0
    meets each term d*x^b of X_i in d*a_i*c * x^(a-e_i+b).  Zero sums are
    dropped once, at the end.
    """
    if p.nvars != X.nvars:
        raise ValueError("variable count mismatch")
    out: Dict[Monomial, object] = {}
    for i, comp in enumerate(X.components):
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
    result = MultiPoly(p.nvars)
    result.terms = {mono: v for mono, v in out.items() if v}
    return result


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


def verify_weighted_power_integral(X: VectorField, model: BianchiModel):
    """Exact check that the energy integral (x1 x2 x3)^w * F, w = (k-1)/2, is
    a first integral of X.

    Dividing the transcendental prefactor out of dG/dt = 0 leaves the
    polynomial identity

        F * w * sum_{i<=3} (X_i / x_i) + X(F) = 0,

    which is returned together with its left-hand side as witness.  Each
    X_i, i <= 3, must be exactly divisible by x_i; failure raises
    DivisibilityError rather than reporting False.
    """
    F = build_F(*model.n)
    w = K_MINUS_1_OVER_2 if model.symbolic else K_MINUS_1_OVER_2(model.k)
    residual = lie_derivative(X, F)
    for i in range(3):
        residual += (F * divide_by_variable(X.components[i], i)) * w
    return residual.is_zero(), residual


def polynomial_integrals(tag: str) -> Tuple[MultiPoly, ...]:
    """The polynomial first integrals each model is known to carry."""
    x = [MultiPoly.variable(NVARS, i) for i in range(NVARS)]
    if tag == "I":
        return (x[3] - x[4], x[3] - x[5])
    if tag == "II":
        return (x[4] - x[5],)
    return ()


def restricted_field(X: VectorField, var_index: int) -> VectorField:
    """The system on the invariant hyperplane x[var_index] = 0."""
    return VectorField(tuple(c.restrict(var_index, Fraction(0)) for c in X.components))


# -- Hamiltonian coordinate map -----------------------------------------------


def hamiltonian_to_state(q: Sequence, p: Sequence) -> Tuple:
    """(q, p) -> x with x_i = q_i and x_{i+3} = 2 p_i q_i."""
    if len(q) != 3 or len(p) != 3:
        raise ValueError("expected three q's and three p's")
    return tuple(q) + tuple(2 * pi * qi for pi, qi in zip(p, q))


def state_to_hamiltonian(x: Sequence) -> Tuple[Tuple, Tuple]:
    """Inverse map; requires q_i = x_i nonzero."""
    if len(x) != NVARS:
        raise ValueError("expected six state entries")
    for i in range(3):
        if x[i] == 0:
            raise ZeroDivisionError("inverse map undefined at x%d = 0" % (i + 1))
    q = tuple(x[:3])
    p = tuple(x[i + 3] / (2 * x[i]) for i in range(3))
    return q, p


def hamiltonian_energy(q: Sequence, p: Sequence, n: Tuple[int, int, int], k: float) -> float:
    """The original phase-space energy function, evaluated in floats."""
    q1, q2, q3 = (float(v) for v in q)
    p1, p2, p3 = (float(v) for v in p)
    n1, n2, n3 = n
    T = 2 * (p1 * p2 * q1 * q2 + p1 * p3 * q1 * q3 + p2 * p3 * q2 * q3) - (
        p1 * p1 * q1 * q1 + p2 * p2 * q2 * q2 + p3 * p3 * q3 * q3
    )
    VG = 2 * (n1 * n2 * q1 * q2 + n1 * n3 * q1 * q3 + n2 * n3 * q2 * q3) - (
        n1 * n1 * q1 * q1 + n2 * n2 * q2 * q2 + n3 * n3 * q3 * q3
    )
    return (q1 * q2 * q3) ** ((k - 1) / 2) * (T + VG / 4)
