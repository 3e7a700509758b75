"""Homogeneous polynomial first-integral detection and PDE lemma analyzers.

The annihilation condition X(P) = 0 on a degree-m homogeneous ansatz is
assembled as an exact linear system whose kernel is the space of degree-m
polynomial first integrals.  Its entries are Python ints in both modes: X
is split by the power of k (one part at a fixed k, the k^0 and k^1 parts in
symbolic mode), each part is scaled by d, the lcm of X's denominators, and
each part's image gets its own rows.  Kernel bases are recomputed
canonically, re-verified against the Lie derivative of X itself, and
compared to the expected dimensions per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .coefficients import K_MINUS_1_OVER_4, KPoly
from .multipoly import Monomial, MultiPoly, monomial_key
from .nullspace import PIVOT_RULE, SparseRow, sparse_kernel_basis
from .vectorfields import (
    BianchiModel,
    VectorField,
    build_bianchi,
    build_F,
    lie_derivative,
    polynomial_integrals,
)

# Independence testing: fixed deterministic points and thresholds.
PRIMARY_RANK_POINT = (1, 2, 3, 5, 7, 11)
RETRY_RANK_POINT = (2, 3, 5, 7, 11, 13)
SINGULAR_VALUE_TOL = 1e-6
FD_STEP = 1e-6


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

    Rows are keyed by (output monomial, k-power); in fixed-k mode the
    k-power is always 0.  Columns follow the ansatz monomial order.  The
    rows are those of the integer parts d*X_p (d the lcm of X's
    denominators) and hold Python ints in both modes.
    """

    columns: Tuple[Monomial, ...]
    rows: List[SparseRow]
    row_keys: List[Tuple[Monomial, int]]

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @property
    def nrows(self) -> int:
        return len(self.rows)


@dataclass
class NullspaceBasis:
    vectors: List[Tuple[Fraction, ...]]
    polynomials: List[MultiPoly]

    @property
    def dimension(self) -> int:
        return len(self.vectors)


def _rows(columns: Iterable[Sequence[MultiPoly]]) -> Tuple[List[SparseRow], List[Tuple[Monomial, int]]]:
    """Sparse rows of the linear map sending unknown j to column j's images.

    Column j holds one image per power of k, so each row is keyed by
    (output monomial, k-power), largest first, and in symbolic mode the
    kernel holds for all k simultaneously.  A single image has k-power 0.
    """
    rowmap: Dict[Tuple[Monomial, int], SparseRow] = {}
    for j, images in enumerate(columns):
        for power, image in enumerate(images):
            for out_mono, coeff in image.terms.items():
                rowmap.setdefault((out_mono, power), {})[j] = coeff
    keys = sorted(rowmap, key=lambda mk: (monomial_key(mk[0]), mk[1]), reverse=True)
    return [rowmap[k] for k in keys], keys


def _integer_parts(X: VectorField) -> List[VectorField]:
    """[d*X_0, d*X_1, ...]: X split by the power of k, d the lcm of all its denominators.

    A rational coefficient is its own k^0 part, so at a fixed k this is [d*X].
    """
    split = [[(mono, c.coeffs if isinstance(c, KPoly) else (c,)) for mono, c in comp.terms.items()]
             for comp in X.components]
    d = lcm(*(c.denominator for comp in split for _, cs in comp for c in cs))
    nparts = max(len(cs) for comp in split for _, cs in comp)
    return [
        VectorField(tuple(
            MultiPoly(X.nvars, {mono: int(cs[p] * d) for mono, cs in comp if p < len(cs)})
            for comp in split))
        for p in range(nparts)
    ]


def assemble_system(X: VectorField, m: int) -> LinearSystem:
    """Linear system whose kernel is {degree-m homogeneous first integrals}.

    It is assembled from the integer parts d*X_p of X, one Lie derivative per
    part and ansatz monomial: each row is d times the k^p row of X's system,
    so it has the same primitive integer row.
    """
    if m < 1:
        raise ValueError("ansatz degree must be >= 1")
    basis = enumerate_monomials(X.nvars, m)
    parts = _integer_parts(X)
    # A generator, so each column's images are dropped once its rows are read.
    rows, keys = _rows(
        [lie_derivative(part, MultiPoly(X.nvars, {mono: 1})) for part in parts] for mono in basis
    )
    return LinearSystem(tuple(basis), rows, keys)


def _vector_to_poly(vec: Sequence[Fraction], columns: Sequence[Monomial]) -> MultiPoly:
    nvars = len(columns[0])
    poly = MultiPoly(nvars, {m: c for m, c in zip(columns, vec) if c})
    if poly:
        poly = poly / poly.leading_coefficient()
    return poly


def kernel_basis(X: VectorField, m: int) -> NullspaceBasis:
    """Canonical degree-m first-integral basis over the rationals, with a
    post-hoc soundness re-check."""
    system = assemble_system(X, m)
    vectors, _rank = sparse_kernel_basis(system.rows, system.ncols)
    basis = NullspaceBasis(vectors, [_vector_to_poly(v, system.columns) for v in vectors])
    for poly in basis.polynomials:
        if not lie_derivative(X, poly).is_zero():
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


@dataclass
class DegreeRecord:
    m: int
    dim: int
    basis: List[MultiPoly]
    expected_dim: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "dim": self.dim,
            "basis": [p.to_text() for p in self.basis],
        }


@dataclass
class IntegrabilityReport:
    model: str
    k: str
    mode: str
    degrees: List[DegreeRecord]
    m_max: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.degrees)

    @property
    def dimensions(self) -> List[int]:
        return [r.dim for r in self.degrees]

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "k": self.k,
            "mode": self.mode,
            "degrees": [r.to_dict() for r in self.degrees],
            "expected": [
                {"m": r.m, "dim": r.expected_dim} for r in self.degrees
            ],
            "pass": self.passed,
            "engine": {"pivot_rule": PIVOT_RULE, "m_max": self.m_max},
            "note": "verified up to degree %d" % self.m_max,
        }


def degree_sweep(model: BianchiModel, m_max: int) -> IntegrabilityReport:
    """Kernel dimensions and bases for degrees 1..m_max, against expectations."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    X = build_bianchi(model)
    records = []
    for m in range(1, m_max + 1):
        basis = kernel_basis(X, m)
        exp_dim = expected_dimension(model.tag, m)
        ok = basis.dimension == exp_dim
        exp_basis = expected_basis(model.tag, m)
        if ok and exp_basis is not None:
            found = {p.to_text() for p in basis.polynomials}
            ok = found == {p.to_text() for p in exp_basis}
        records.append(DegreeRecord(m, basis.dimension, basis.polynomials, exp_dim, ok))
    return IntegrabilityReport(
        model=model.tag,
        k=model.k_text(),
        mode="symbolic-k" if model.symbolic else "fixed-k",
        degrees=records,
        m_max=m_max,
    )


# -- Independence ranks --------------------------------------------------------


@dataclass
class RankResult:
    rank: int
    smallest_retained_sv: float
    point: Tuple
    retried: bool

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "smallest_retained_sv": self.smallest_retained_sv,
            "point": [str(v) for v in self.point],
            "retried": self.retried,
            "sv_tol": SINGULAR_VALUE_TOL,
        }


def _jacobian_row(item, point):
    import numpy as np

    n = len(point)
    if isinstance(item, MultiPoly):
        return np.array([float(item.partial_derivative(i).evaluate(point)) for i in range(n)])
    base = [float(v) for v in point]
    row = []
    for i in range(n):
        hi = list(base)
        lo = list(base)
        hi[i] += FD_STEP
        lo[i] -= FD_STEP
        row.append((item(hi) - item(lo)) / (2 * FD_STEP))
    return np.array(row)


def _rank_at(fields, point) -> Tuple[int, float]:
    import numpy as np

    jac = np.vstack([_jacobian_row(f, point) for f in fields])
    sv = np.linalg.svd(jac, compute_uv=False)
    rank = int((sv > SINGULAR_VALUE_TOL).sum())
    smallest = float(sv[rank - 1]) if rank else 0.0
    return rank, smallest


def independence_rank(fields: Sequence) -> RankResult:
    """Rank of the Jacobian of the given scalar fields at a fixed point.

    Entries are MultiPoly (gradients exact) or float callables (central
    differences).  On suspected degeneracy the fixed retry point is used
    and the larger rank kept.
    """
    point = PRIMARY_RANK_POINT
    rank, smallest = _rank_at(fields, point)
    retried = False
    if rank < len(fields):
        retry_rank, retry_smallest = _rank_at(fields, RETRY_RANK_POINT)
        retried = True
        if retry_rank > rank:
            rank, smallest, point = retry_rank, retry_smallest, RETRY_RANK_POINT
    return RankResult(rank, smallest, point, retried)


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
    c = K_MINUS_1_OVER_4(Fraction(k))
    d = lcm(c.denominator, *(v.denominator for v in linear.terms.values()))
    linear = linear.map_coefficients(lambda v: int(d * v))
    transport = VectorField((int(d * c) * _f123(),) * 3)
    images = []
    for mono in monos:
        g = MultiPoly.from_monomial(3, mono)
        images.append(linear * g + lie_derivative(transport, g))
    return d, images


def lemma_estrella_solve(
    a1: Fraction, a2: Fraction, a3: Fraction, k: Fraction, m: int
) -> NullspaceBasis:
    """Homogeneous degree-m polynomial solutions g(x4,x5,x6) of

        (a1 x4 + a2 x5 + a3 x6) g + (k-1)/4 F123 (g_4 + g_5 + g_6) = 0.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    y = [MultiPoly.variable(3, i) for i in range(3)]
    monos = enumerate_monomials(3, m)
    _, images = _transport_images(a1 * y[0] + a2 * y[1] + a3 * y[2], k, monos)
    vectors, _ = sparse_kernel_basis(_rows(zip(images))[0], len(images))
    polys = [_vector_to_poly(v, monos) for v in vectors]
    return NullspaceBasis(vectors, polys)


@dataclass
class DificilSolution:
    """Joint kernel of the combined g/h system of the hard PDE."""

    dimension: int
    g_basis: List[MultiPoly]
    h_coefficients: List[Tuple[Fraction, ...]]  # (a_0, ..., a_n) per solution
    conforms: bool  # every solution has g = 0 and h = c*(x4-x6)^n

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "g_basis": [g.to_text(TAIL_VAR_NAMES) for g in self.g_basis],
            "h_coefficients": [[str(c) for c in a] for a in self.h_coefficients],
            "conforms": self.conforms,
        }


def lemma_dificil_solve(k: Fraction, n: int) -> DificilSolution:
    """Solve for g (degree n-2) and h = sum a_i (x4-x5)^i (x4-x6)^(n-i) with

        2(x4-x5+x6) g + (k-1)/4 F123 (g_4+g_5+g_6) + dh/dx5 = 0.
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
    vectors, _ = sparse_kernel_basis(_rows(zip(images))[0], len(images))
    ncols_g = len(g_monos)
    g_basis = []
    h_coeffs = []
    conforms = True
    for vec in vectors:
        g_poly = MultiPoly(3, {m: c for m, c in zip(g_monos, vec[:ncols_g]) if c})
        a = tuple(vec[ncols_g:])
        g_basis.append(g_poly)
        h_coeffs.append(a)
        if g_poly or any(a[1:]):
            conforms = False
    if len(vectors) != 1:
        conforms = False
    return DificilSolution(len(vectors), g_basis, h_coeffs, conforms)


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
            recursion, at_a1_neg_a2 = P * c(n - 1, i), MultiPoly.zero(2)
        else:
            recursion, at_a1_neg_a2 = n * Q ** (n - 1), n * 4 ** (n - 1) * A2 ** (2 * n - 2)
        c_ni = c(n, i)
        if c_ni != recursion or c_ni.evaluate((-A2, A2)) != at_a1_neg_a2:
            return False
    return True
