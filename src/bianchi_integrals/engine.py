"""Homogeneous polynomial first-integral detection and PDE lemma analyzers.

The annihilation condition X(P) = 0 on a degree-m homogeneous ansatz is
assembled as an exact linear system whose kernel is the space of degree-m
polynomial first integrals.  A model gives one field per k it is built
at, two at symbolic k.  X(P) is affine in k, so it is zero for every k
exactly when it is zero at both k of SYMBOLIC_K: the kernel of the two
systems stacked is the symbolic kernel.  Its entries are Python ints.
Kernel bases are recomputed canonically, re-verified against the Lie
derivative of every field, and compared to the expected dimensions per
model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coefficients import K_MINUS_1_OVER_2, K_MINUS_1_OVER_4
from .multipoly import Monomial, MultiPoly, monomial_key
from .nullspace import PIVOT_RULE, SparseRow, sparse_kernel_basis
from .vectorfields import (
    BIANCHI_TABLE,
    BianchiModel,
    Field,
    build_bianchi,
    build_F,
    lie_derivative,
    polynomial_integrals,
)

class SoundnessError(RuntimeError):
    """A kernel polynomial failed the independent Lie-derivative re-check."""


def enumerate_monomials(nvars: int, degree: int) -> List[Monomial]:
    """All degree-m exponent tuples, graded-lex order (largest first)."""
    if nvars < 1 or degree < 0:
        raise ValueError("need nvars >= 1 and degree >= 0")
    return [
        tuple(factors.count(i) for i in range(nvars))
        for factors in combinations_with_replacement(range(nvars), degree)
    ]


@dataclass
class LinearSystem:
    """Sparse matrix of the annihilation condition.

    Rows are ordered by (output monomial, part index), as _rows sorts them;
    a fixed k has one part.  Columns follow the ansatz monomial order.  The
    rows, Python ints, are those of the parts assemble_system builds.
    """

    columns: Tuple[Monomial, ...]
    rows: List[SparseRow]

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @property
    def nrows(self) -> int:
        return len(self.rows)


def _rows(columns: Iterable[Sequence[MultiPoly]]) -> List[SparseRow]:
    """Sparse rows of the linear map sending unknown j to column j's images.

    Column j holds one image per part, so each row is keyed by (output
    monomial, part index), largest first, and the kernel annihilates every
    part at once.  A single image has part index 0.
    """
    rowmap: Dict[Tuple[Monomial, int], SparseRow] = {}
    for j, images in enumerate(columns):
        for f, image in enumerate(images):
            for out_mono, coeff in image.terms.items():
                rowmap.setdefault((out_mono, f), {})[j] = coeff
    keys = sorted(rowmap, key=lambda mk: (monomial_key(mk[0]), mk[1]), reverse=True)
    return [rowmap[k] for k in keys]


def assemble_system(fields: Sequence[Field], m: int) -> LinearSystem:
    """Linear system whose kernel is {degree-m homogeneous first integrals of every field}.

    The parts X_0 and X_f - X_0 have the common kernel of the fields, and
    X_f - X_0 keeps only the terms that differ, so its rows fill in less
    under elimination.  Scaled by d, the lcm of their denominators, each
    part gives one Lie derivative per ansatz monomial: each row is d times
    a row of that part's system, so it has the same primitive integer row.
    """
    if m < 1:
        raise ValueError("ansatz degree must be >= 1")
    X0 = fields[0]
    basis = enumerate_monomials(len(X0), m)
    parts = [X0] + [tuple(b - a for a, b in zip(X0, X)) for X in fields[1:]]
    d = lcm(*(c.denominator for X in parts for comp in X for c in comp.terms.values()))
    parts = [tuple(comp.map_coefficients(lambda c: int(c * d)) for comp in X) for X in parts]
    # A generator, so each column's images are dropped once its rows are read.
    rows = _rows([lie_derivative(X, MultiPoly(len(X0), {mono: 1})) for X in parts]
                 for mono in basis)
    return LinearSystem(tuple(basis), rows)


def _vector_to_poly(vec: Sequence[Fraction], columns: Sequence[Monomial]) -> MultiPoly:
    nvars = len(columns[0])
    poly = MultiPoly(nvars, {m: c for m, c in zip(columns, vec) if c})
    if poly:
        poly = poly / poly.leading_coefficient()
    return poly


def kernel_basis(fields: Sequence[Field], m: int) -> List[MultiPoly]:
    """Canonical basis of the degree-m first integrals common to every field,
    over the rationals, with a post-hoc soundness re-check against each field."""
    system = assemble_system(fields, m)
    vectors, _rank = sparse_kernel_basis(system.rows, system.ncols)
    basis = [_vector_to_poly(v, system.columns) for v in vectors]
    for poly in basis:
        for X in fields:
            if lie_derivative(X, poly):
                raise SoundnessError("kernel polynomial fails annihilation re-check: %s" % poly)
    return basis


# -- Theorem reproduction ------------------------------------------------------


def expected_dimension(tag: str, m: int) -> int:
    """Expected degree-m kernel dimension per model.

    The first integrals are the polynomial algebra generated by the model's
    r independent linear integrals, whose degree-m part has dimension
    C(m+r-1, m): m+1 for type I, 1 for type II and 0 for the other four.
    """
    r = len(polynomial_integrals(tag))
    return comb(m + r - 1, m)


def expected_basis(tag: str, m: int) -> Optional[List[MultiPoly]]:
    """Exact expected basis, where the theorem pins one down."""
    generators = polynomial_integrals(tag)
    if len(generators) == 1:
        return [generators[0] ** m]
    if m == 1:
        return list(generators)
    return None


def degree_sweep(model: BianchiModel, m_max: int) -> dict:
    """find's payload: kernel dimensions and bases for degrees 1..m_max, against expectations."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    fields = [build_bianchi(model.tag, k) for k in model.ks]
    degrees, expected, passed = [], [], True
    for m in range(1, m_max + 1):
        basis = [p.to_text() for p in kernel_basis(fields, m)]
        exp_dim = expected_dimension(model.tag, m)
        exp_basis = expected_basis(model.tag, m)
        passed = passed and len(basis) == exp_dim and (
            exp_basis is None or set(basis) == {p.to_text() for p in exp_basis})
        degrees.append({"m": m, "dim": len(basis), "basis": basis})
        expected.append({"m": m, "dim": exp_dim})
    return {
        "model": model.tag,
        "k": model.k_text(),
        "mode": "symbolic-k" if model.k is None else "fixed-k",
        "degrees": degrees,
        "expected": expected,
        "pass": passed,
        "engine": {"pivot_rule": PIVOT_RULE, "m_max": m_max},
        "note": "verified up to degree %d" % m_max,
    }


# -- Independence ranks --------------------------------------------------------

# D = 49 and R = 3/10 here (see _gradient_rows), so even the dropped term is
# rational.  x1 x2 x3 > 0 and s > 2 sqrt(D) put the point in the domain of H
# and T_ij, and both a are nonzero.
RANK_POINT = (1, 2, 3, 5, 8, 13)


def _gradient_rows(tag: str, k: Fraction) -> List[List[Fraction]]:
    """Rows at RANK_POINT that span the gradients of the integrals the
    theorem names for type I or II.

    grad p for each polynomial integral p.  For H = (x1 x2 x3)^w F with
    w = (k-1)/2, grad H / (x1 x2 x3)^w = w F (1/x1, 1/x2, 1/x3, 0, 0, 0) + grad F.
    For type I, grad log T_ij = grad T_ij / T_ij without its term
    log R grad(a/sqrt D), where T_ij = (x_i/x_j)^(-w) R^(a/sqrt D),
    a = x_(i+3) - x_(j+3), R = (s - 2 sqrt D)/(s + 2 sqrt D) and
    s = x4 + x5 + x6.  D = u^2 - uv + v^2 in the linear integrals u = x4 - x5
    and v = x4 - x6, so that term lies in the span of their rows.  What is
    left is rational: (a/sqrt D) grad log R = 2a (2D grad s - s grad D) / (D (s^2 - 4D)).
    """
    x = RANK_POINT

    def grad(p: MultiPoly) -> List[Fraction]:
        return [p.partial_derivative(c).evaluate(x) for c in range(len(x))]

    linear = polynomial_integrals(tag)
    w = K_MINUS_1_OVER_2(k)
    F = build_F(*BIANCHI_TABLE[tag])
    rows = [grad(p) for p in linear]
    rows.append([w * F.evaluate(x) * Fraction(c < 3, x[c]) + g for c, g in enumerate(grad(F))])
    if tag == "I":
        u, v = linear
        D = u * u - u * v + v * v
        D_x, s_x = D.evaluate(x), sum(x[3:])
        scale = Fraction(2, D_x * (s_x * s_x - 4 * D_x))
        per_a = [scale * (2 * D_x * (c >= 3) - s_x * g) for c, g in enumerate(grad(D))]
        for i, j in ((0, 1), (1, 2)):
            a = x[i + 3] - x[j + 3]
            rows.append([a * r - w * (Fraction(c == i, x[i]) - Fraction(c == j, x[j]))
                         for c, r in enumerate(per_a)])
    return rows


def independence_rank(tag: str, k: Fraction) -> Tuple[int, int]:
    """Exact rank of _gradient_rows(tag, k), each cleared of denominators, and their number."""
    rows = _gradient_rows(tag, k)
    cleared = []
    for row in rows:
        d = lcm(*(v.denominator for v in row))
        cleared.append({c: int(v * d) for c, v in enumerate(row) if v})
    return sparse_kernel_basis(cleared, len(RANK_POINT))[1], len(rows)


# -- Lemma analyzers (three-variable PDEs) ------------------------------------


def _f123() -> MultiPoly:
    """F of type I, x4^2+x5^2+x6^2-2(x4x5+x4x6+x5x6), in the three tail variables."""
    return MultiPoly(3, {mono[3:]: c for mono, c in build_F(0, 0, 0).terms.items()})


TAIL_VAR_NAMES = ("x4", "x5", "x6")


def _transport_images(linear: MultiPoly, k: Fraction, monos: List[Monomial]) -> Tuple[int, List[MultiPoly]]:
    """d and d * (linear * g + (k-1)/4 F123 (g_4 + g_5 + g_6)) for each monomial g.

    d, the lcm of the denominators of (k-1)/4 and of linear, makes the images
    integral.  The kernel stays the same if every other column is scaled by d.
    """
    c = K_MINUS_1_OVER_4(k)
    d = lcm(c.denominator, *(v.denominator for v in linear.terms.values()))
    linear = linear.map_coefficients(lambda v: int(d * v))
    transport = (int(d * c) * _f123(),) * 3
    images = []
    for mono in monos:
        g = MultiPoly(3, {mono: 1})
        images.append(linear * g + lie_derivative(transport, g))
    return d, images


def lemma_estrella_solve(
    a1: Fraction, a2: Fraction, a3: Fraction, k: Fraction, m: int
) -> List[MultiPoly]:
    """Homogeneous degree-m polynomial solutions g(x4,x5,x6) of

        (a1 x4 + a2 x5 + a3 x6) g + (k-1)/4 F123 (g_4 + g_5 + g_6) = 0.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    y = [MultiPoly.variable(3, i) for i in range(3)]
    monos = enumerate_monomials(3, m)
    _, images = _transport_images(a1 * y[0] + a2 * y[1] + a3 * y[2], k, monos)
    vectors, _ = sparse_kernel_basis(_rows(zip(images)), len(images))
    return [_vector_to_poly(v, monos) for v in vectors]


def lemma_dificil_solve(k: Fraction, n: int) -> Tuple[List[MultiPoly], List[Tuple[Fraction, ...]]]:
    """Solve for g (degree n-2) and h = sum a_i (x4-x5)^i (x4-x6)^(n-i) with

        2(x4-x5+x6) g + (k-1)/4 F123 (g_4+g_5+g_6) + dh/dx5 = 0.

    Returns one g and one (a_0, ..., a_n) per joint kernel vector.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    y = [MultiPoly.variable(3, i) for i in range(3)]
    u = y[0] - y[1]  # x4 - x5
    v = y[0] - y[2]  # x4 - x6
    g_monos = enumerate_monomials(3, n - 2)
    d, images = _transport_images(2 * (y[0] - y[1] + y[2]), k, g_monos)
    for i in range(n + 1):
        h_i = (u ** i) * (v ** (n - i))
        images.append(d * h_i.partial_derivative(1))
    vectors, _ = sparse_kernel_basis(_rows(zip(images)), len(images))
    ncols_g = len(g_monos)
    g_basis = [MultiPoly(3, {m: c for m, c in zip(g_monos, vec[:ncols_g]) if c}) for vec in vectors]
    return g_basis, [tuple(vec[ncols_g:]) for vec in vectors]


# -- The recursion identity behind the hard lemma -----------------------------


def sn_recursion_check(n: int) -> bool:
    """Exact check of the S_n recursion and its specialization at A1 = -A2.

    S_n = sum_i P^(n-i) Q^(i-1) i a_i, with P = (3A1-A2)(A1+A2) and
    Q = (3A1+A2)(A1-A2), is linear in the a_i.  So S_n = P S_(n-1) + n Q^(n-1) a_n
    and S_n(-A2, A2) = n 4^(n-1) A2^(2n-2) a_n are checked one a_i
    coefficient c_(n,i) = i P^(n-i) Q^(i-1) at a time, in Q[A1, A2].
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    A1, A2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    P = (3 * A1 - A2) * (A1 + A2)
    Q = (3 * A1 + A2) * (A1 - A2)
    P_pow, Q_pow = [MultiPoly.constant(2, 1)], [MultiPoly.constant(2, 1)]
    for _ in range(n - 1):
        P_pow.append(P_pow[-1] * P)
        Q_pow.append(Q_pow[-1] * Q)

    def c(m: int, i: int) -> MultiPoly:  # the a_i coefficient of S_m
        return i * P_pow[m - i] * Q_pow[i - 1]

    for i in range(1, n + 1):
        if i < n:
            recursion, at_a1_neg_a2 = P * c(n - 1, i), MultiPoly(2)
        else:
            recursion, at_a1_neg_a2 = n * Q ** (n - 1), n * 4 ** (n - 1) * A2 ** (2 * n - 2)
        c_ni = c(n, i)
        if c_ni != recursion or c_ni.evaluate((-A2, A2)) != at_a1_neg_a2:
            return False
    return True
