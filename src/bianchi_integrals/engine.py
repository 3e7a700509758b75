"""Homogeneous polynomial first-integral detection and PDE lemma analyzers.

The annihilation condition X(P) = 0 on a degree-m homogeneous ansatz is
assembled as an exact linear system whose kernel is the space of degree-m
polynomial first integrals.  A model gives one field per k it is built
at, two at symbolic k.  X(P) is affine in k, so it is zero for every k
exactly when it is zero at both k of SYMBOLIC_K: the kernel of the two
systems stacked is the symbolic kernel.  That is the kernel of any basis
of the span of X(0) and X(1/2), so the system stacks the sparsest pair
known: X(1) = 2 X(1/2) - X(0), which has no (k-1)/4 terms, and
V = d/dx4 + d/dx5 + d/dx6.  X(1/2) - X(0) = (1/8) F (0, 0, 0, 1, 1, 1) is
G V with G = F/8, and G V(P) = 0 exactly when V(P) = 0, as Q[x] has no
zero divisors.  That factorisation is checked on the fields themselves;
where it fails, the difference stays the second part.  The entries are
Python ints.  Kernel bases are recomputed canonically and re-verified, in
integers, against the Lie derivative of every field the model is built
at, so a part that lets in a vector outside the symbolic kernel raises a
SoundnessError.  The expected degree-m kernel is the span of the products
of the model's known integrals whose degrees sum to m; a kernel matches it
when rank(products) = rank(kernel) = rank(products and kernel) = the
kernel's length, which also rules out a repeated or dependent vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .coefficients import K_MINUS_1_OVER_2, K_MINUS_1_OVER_4
from .multipoly import Monomial, MultiPoly, monomial_key
from .nullspace import PIVOT_RULE, SparseRow, echelon, sparse_kernel_basis
from .vectorfields import (
    BIANCHI_TABLE,
    NVARS,
    BianchiModel,
    Field,
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
    rows, Python ints, are those of the parts assemble_system builds, and
    outputs holds the output monomial of each row.
    """

    columns: Tuple[Monomial, ...]
    outputs: List[Monomial]
    rows: List[SparseRow]

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def labels(self) -> Tuple[List[Tuple[int, Monomial]], List[Tuple[int, Monomial]]]:
        """The filtration label of each column and of each row, for sparse_kernel_basis."""
        return ([_filtration_label(c[:3]) for c in self.columns],
                [_filtration_label(o[:3]) for o in self.outputs])


def _rows(columns: Iterable[Sequence[MultiPoly]]) -> Tuple[List[Monomial], List[SparseRow]]:
    """The output monomial of each row and the sparse rows of the linear map
    sending unknown j to column j's images.

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
    return [mono for mono, _ in keys], [rowmap[k] for k in keys]


def _direction(D: Field) -> Field:
    """The constant field V with D = G V for a polynomial G, if there is
    one, else D itself; both have the kernel of D.

    D is G V exactly when every nonzero component is a rational multiple
    of one polynomial G, the first of them, and V holds those multiples.
    Then D(P) = G V(P), which is 0 exactly when V(P) is.
    """
    nonzero = [comp for comp in D if comp]
    if not nonzero:
        return D
    G = nonzero[0]
    mono, g = next(iter(G.terms.items()))
    scales = [Fraction(comp.terms.get(mono, 0)) / g for comp in D]
    if any(comp.terms != {m: s * c for m, c in G.terms.items() if s}
           for comp, s in zip(D, scales)):
        return D
    return tuple(MultiPoly.constant(len(D), s) for s in scales)


def assemble_system(fields: Sequence[Field], m: int) -> LinearSystem:
    """Linear system whose kernel is {degree-m homogeneous first integrals of every field}.

    One field is its own part.  Two fields X_0, X_1 have the common kernel
    of any basis of their span; the parts are X_1 + (X_1 - X_0), which is
    X(1) for the fields at SYMBOLIC_K = (0, 1/2), and _direction(X_1 - X_0),
    which is d/dx4 + d/dx5 + d/dx6 there and the difference itself for a
    pair where the factorisation check fails.  At symbolic k both parts
    keep the x1..x3 exponent of a monomial or raise it by 2, as the
    filtration labels ask.  Each part, cleared by _cleared, gives one Lie
    derivative per ansatz monomial: a row belongs to one part and is a
    positive multiple of a row of that part's system, so it has the same
    primitive integer row.  No output names the parts.
    """
    if m < 1:
        raise ValueError("ansatz degree must be >= 1")
    parts = list(fields)
    if len(parts) == 2:
        X0, X1 = parts
        D = tuple(b - a for a, b in zip(X0, X1))
        parts = [tuple(b + c for b, c in zip(X1, D)), _direction(D)]
    basis = enumerate_monomials(len(parts[0]), m)
    parts = [_cleared(X) for X in parts]
    # A generator, so each column's images are dropped once its rows are read.
    outputs, rows = _rows([lie_derivative(X, MultiPoly(len(X), {mono: 1})) for X in parts]
                          for mono in basis)
    return LinearSystem(tuple(basis), outputs, rows)


def _cleared(polys: Sequence[MultiPoly]) -> List[MultiPoly]:
    """The polynomials times the lcm of all their denominators, with int coefficients."""
    d = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return [p.map_coefficients(lambda c: int(c * d)) for p in polys]


def _vector_to_poly(vec: Sequence[Fraction], columns: Sequence[Monomial]) -> MultiPoly:
    nvars = len(columns[0])
    poly = MultiPoly(nvars, {m: c for m, c in zip(columns, vec) if c})
    if poly:
        poly = poly / poly.leading_coefficient()
    return poly


@lru_cache(maxsize=None)
def _filtration_label(alpha: Tuple[int, int, int]) -> Tuple[int, Tuple[int, int, int]]:
    """(level, group) of the monomials whose exponent in x1..x3 is alpha.

    The group is alpha and the level |alpha|, but every alpha with
    |alpha| <= 2 is one group at level 2, as the block of alpha = 0 alone
    holds every G(x4 - x5, x4 - x6) in its kernel.  A field is X0 + X2: for
    i <= 3, X_i is x_i times a form in x4..x6, and X_(3+i) is a multiple of
    F123 plus a form of degree 2 in x1..x3.  X0 keeps alpha and X2 raises
    |alpha| by 2, so a row has entries only in columns of its own group or
    of a lower level; sparse_kernel_basis checks this on the rows.  Cached,
    so that equal labels are one object.
    """
    level = sum(alpha)
    return (level, alpha) if level > 2 else (2, (0, 0, 0))


def kernel_basis(fields: Sequence[Field], m: int) -> List[MultiPoly]:
    """Canonical basis of the degree-m first integrals common to every field,
    over the rationals, with a post-hoc soundness re-check against each field.
    Columns and rows are labelled by the x1..x3 filtration, so that an empty
    kernel is certified on the diagonal blocks."""
    system = assemble_system(fields, m)
    vectors, _rank = sparse_kernel_basis(system.rows, system.ncols, system.labels)
    basis = [_vector_to_poly(v, system.columns) for v in vectors]
    # In integers: d*X(e*P) = d*e*X(P) with d, e > 0, so the verdict is the same.
    integral = [_cleared(X) for X in fields]
    for poly in basis:
        (scaled,) = _cleared([poly])
        for X in integral:
            if lie_derivative(X, scaled):
                raise SoundnessError("kernel polynomial fails annihilation re-check: %s" % poly)
    return basis


# -- Theorem reproduction ------------------------------------------------------


def _products(generators: Sequence[MultiPoly], m: int) -> List[MultiPoly]:
    """The products of generators, with repetition, whose degrees sum to m."""
    if m == 0:
        return [MultiPoly.constant(NVARS, 1)]
    out = []
    for i, g in enumerate(generators):
        d = max(map(sum, g.terms))
        if d <= m:
            out += [g * p for p in _products(generators[i:], m - d)]
    return out


def _rank(polys: Sequence[MultiPoly]) -> int:
    """Exact rank of the polynomials over Q: the number of pivots of their
    echelon, each cleared of denominators and keyed by monomial.  The sets
    are small, so a rank mod p would not pay for itself."""
    return len(echelon([_cleared([p])[0].terms for p in polys]))


def degree_sweep(model: BianchiModel, m_max: int) -> dict:
    """find's payload: kernel dimensions and bases for degrees 1..m_max, each
    against the span of the products of polynomial_integrals(model.tag)."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    generators = polynomial_integrals(model.tag)
    degrees, expected, passed = [], [], True
    for m in range(1, m_max + 1):
        kernel = kernel_basis(model.fields, m)
        products = _products(generators, m)
        dim = _rank(products)
        passed = passed and dim == _rank(kernel) == _rank(products + kernel) == len(kernel)
        degrees.append({"m": m, "dim": len(kernel), "basis": [p.to_text() for p in kernel]})
        expected.append({"m": m, "dim": dim})
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
    """Exact rank of _gradient_rows(tag, k), each as the linear form row . x, and their number."""
    rows = _gradient_rows(tag, k)
    units = enumerate_monomials(NVARS, 1)
    return _rank([MultiPoly(NVARS, dict(zip(units, row))) for row in rows]), len(rows)


# -- Lemma analyzers (PDEs in x4, x5, x6) -------------------------------------
#
# The PDEs are built in the fields' six-variable ring, and x1..x3 never
# occur in them: their monomials are (0, 0, 0) + m, and
# F123 = build_F(0, 0, 0) = x4^2+x5^2+x6^2-2(x4x5+x4x6+x5x6).


def _transport_kernel(linear: MultiPoly, k: Fraction, m: int,
                      extra: List[MultiPoly]) -> Tuple[List[Monomial], List[Tuple[Fraction, ...]]]:
    """The degree-m monomials g and the canonical kernel of the columns
    linear * g + (k-1)/4 F123 (g_4 + g_5 + g_6), one per g, then extra.

    One _cleared call scales linear, (k-1)/4 F123 and extra by one d, so
    the images are integral and the kernel stays the same.
    """
    linear, cF, *extra = _cleared([linear, K_MINUS_1_OVER_4(k) * build_F(0, 0, 0), *extra])
    transport = (MultiPoly(NVARS),) * 3 + (cF,) * 3
    monos = [(0, 0, 0) + g for g in enumerate_monomials(3, m)]
    images = []
    for mono in monos:
        g = MultiPoly(NVARS, {mono: 1})
        images.append(linear * g + lie_derivative(transport, g))
    images += extra
    vectors, _ = sparse_kernel_basis(_rows(zip(images))[1], len(images))
    return monos, vectors


def lemma_estrella_solve(
    a1: Fraction, a2: Fraction, a3: Fraction, k: Fraction, m: int
) -> List[MultiPoly]:
    """Homogeneous degree-m polynomial solutions g(x4,x5,x6) of

        (a1 x4 + a2 x5 + a3 x6) g + (k-1)/4 F123 (g_4 + g_5 + g_6) = 0.
    """
    y = [MultiPoly.variable(NVARS, i) for i in range(3, 6)]
    monos, vectors = _transport_kernel(a1 * y[0] + a2 * y[1] + a3 * y[2], k, m, [])
    return [_vector_to_poly(v, monos) for v in vectors]


def lemma_dificil_solve(k: Fraction, n: int) -> Tuple[List[MultiPoly], List[Tuple[Fraction, ...]]]:
    """Solve for g (degree n-2) and h = sum a_i (x4-x5)^i (x4-x6)^(n-i) with

        2(x4-x5+x6) g + (k-1)/4 F123 (g_4+g_5+g_6) + dh/dx5 = 0.

    Returns one g and one (a_0, ..., a_n) per joint kernel vector.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    y = [MultiPoly.variable(NVARS, i) for i in range(3, 6)]
    u = y[0] - y[1]  # x4 - x5
    v = y[0] - y[2]  # x4 - x6
    h_x5 = [((u ** i) * (v ** (n - i))).partial_derivative(4) for i in range(n + 1)]
    g_monos, vectors = _transport_kernel(2 * (y[0] - y[1] + y[2]), k, n - 2, h_x5)
    g_basis = [MultiPoly(NVARS, dict(zip(g_monos, vec))) for vec in vectors]
    return g_basis, [vec[len(g_monos):] for vec in vectors]


# -- The recursion identity behind the hard lemma -----------------------------


def sn_recursion_check(n: int) -> bool:
    """Exact check of the S_n recursion and its specialization at A1 = -A2.

    S_n = sum_i c_(n,i) a_i with c_(n,i) = i P^(n-i) Q^(i-1), P = (3A1-A2)(A1+A2)
    and Q = (3A1+A2)(A1-A2).  c_(n,i) = P c_(n-1,i) for i < n by definition, so
    S_n = P S_(n-1) + n Q^(n-1) a_n.  If P(-A2, A2) = 0 and Q(-A2, A2) = 4A2^2,
    then c_(n,i)(-A2, A2) is 0 for i < n and n 4^(n-1) A2^(2n-2) for i = n, so
    S_n(-A2, A2) = n 4^(n-1) A2^(2n-2) a_n for every n.  The two evaluations are
    checked in Q[A1, A2], Q's in the form Q(-A2, A2)^(n-1) that the a_n term uses.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    A1, A2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    P = (3 * A1 - A2) * (A1 + A2)
    Q = (3 * A1 + A2) * (A1 - A2)
    at = (-A2, A2)
    return not P.evaluate(at) and Q.evaluate(at) ** (n - 1) == 4 ** (n - 1) * A2 ** (2 * n - 2)
