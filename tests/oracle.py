"""Independent naive dense elimination, used only as a cross-check oracle.

Deliberately separate from the package's sparse fraction-free path: plain
textbook Gauss-Jordan over Fraction on dense list-of-lists matrices, with
its own matrix assembly from the product rule X(p) = sum_i X_i dp/dx_i,
built with MultiPoly products and sums rather than `lie_derivative`.

The float Jacobian and its singular values cross-check the exact
independence rank numerically, from the float invariants of `dynamics`.
"""

from fractions import Fraction

import numpy as np

from bianchi_integrals.engine import enumerate_monomials
from bianchi_integrals.multipoly import MultiPoly, monomial_key

FD_STEP = 1e-6
SINGULAR_VALUE_TOL = 1e-6

# The k whose stacked systems stand for symbolic k here: four, so that the
# oracle does not rest on the two k the package itself stacks.
SYMBOLIC_SAMPLES = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10))


def product_rule_image(X, p):
    """sum_i X_i * dp/dx_i from MultiPoly partial derivatives, products and sums."""
    total = MultiPoly(p.nvars)
    for i, comp in enumerate(X):
        total = total + comp * p.partial_derivative(i)
    return total


def dense_rref(matrix):
    """In-place reduced row echelon form; returns pivot column list."""
    if not matrix:
        return []
    nrows, ncols = len(matrix), len(matrix[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if matrix[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = Fraction(1) / matrix[r][c]
        matrix[r] = [v * inv for v in matrix[r]]
        for i in range(nrows):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def dense_rank(matrix):
    return len(dense_rref([list(row) for row in matrix]))


def dense_kernel(matrix, ncols):
    """Kernel basis of a dense Fraction matrix (one vector per free column)."""
    work = [list(row) for row in matrix]
    pivots = dense_rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -work[r][f]
        basis.append(vec)
    return basis


def annihilation_matrix(fields, m):
    """Dense matrix of the degree-m annihilation condition of every field at
    once, assembled directly from the product-rule images of the ansatz
    monomials: one row per field and output monomial."""
    columns = enumerate_monomials(len(fields[0]), m)
    matrix = []
    for X in fields:
        images = [product_rule_image(X, MultiPoly(len(X), {mono: 1})) for mono in columns]
        outs = sorted({mono for img in images for mono in img.terms}, key=monomial_key, reverse=True)
        matrix += [[Fraction(img.terms.get(mono, 0)) for img in images] for mono in outs]
    return matrix, columns


def kernel_oracle(fields, m):
    """Kernel basis and dimension via the naive dense path."""
    matrix, columns = annihilation_matrix(fields, m)
    if not matrix:
        n = len(columns)
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)], columns
    return dense_kernel(matrix, len(columns)), columns


def same_subspace(basis_a, basis_b):
    """Mutual-membership check: equal spans over the rationals."""
    if len(basis_a) != len(basis_b):
        return False
    if not basis_a:
        return True
    dim = dense_rank([list(v) for v in basis_a])
    if dim != len(basis_a) or dense_rank([list(v) for v in basis_b]) != len(basis_b):
        return False
    stacked = [list(v) for v in basis_a] + [list(v) for v in basis_b]
    return dense_rank(stacked) == dim


def float_jacobian(fields, point):
    """Jacobian of scalar fields at a point, in floats: the exact gradient of
    a MultiPoly, central differences of a float callable."""
    base = [float(v) for v in point]
    rows = []
    for f in fields:
        if isinstance(f, MultiPoly):
            rows.append([float(f.partial_derivative(i).evaluate(point)) for i in range(len(point))])
            continue
        row = []
        for i in range(len(point)):
            hi, lo = list(base), list(base)
            hi[i] += FD_STEP
            lo[i] -= FD_STEP
            row.append((f(hi) - f(lo)) / (2 * FD_STEP))
        rows.append(row)
    return np.array(rows)


def float_rank(fields, point):
    """Number of singular values of the float Jacobian above
    SINGULAR_VALUE_TOL, and the smallest of them."""
    sv = np.linalg.svd(float_jacobian(fields, point), compute_uv=False)
    rank = int((sv > SINGULAR_VALUE_TOL).sum())
    return rank, float(sv[rank - 1]) if rank else 0.0
