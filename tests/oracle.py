"""Independent naive dense elimination, used only as a cross-check oracle.

Deliberately separate from the package's sparse fraction-free path: plain
textbook Gauss-Jordan over Fraction on dense list-of-lists matrices, with
its own matrix assembly from the product rule X(p) = sum_i X_i dp/dx_i,
built with MultiPoly products and sums rather than `lie_derivative`.
"""

from fractions import Fraction

from bianchi_integrals.coefficients import KPoly
from bianchi_integrals.engine import enumerate_monomials
from bianchi_integrals.multipoly import MultiPoly, monomial_key


def product_rule_image(X, p):
    """sum_i X_i * dp/dx_i from MultiPoly partial derivatives, products and sums."""
    total = MultiPoly.zero(p.nvars)
    for i, comp in enumerate(X.components):
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


def k_powers(coeff):
    """Coefficients of k^0, k^1, ... of a rational or KPoly coefficient."""
    return coeff.coeffs if isinstance(coeff, KPoly) else (coeff,)


def annihilation_matrix(X, m):
    """Dense matrix of the degree-m annihilation condition, assembled
    directly from the product-rule images of the ansatz monomials: one row
    per output monomial and power of k, so that a symbolic-k kernel holds
    for every k."""
    columns = enumerate_monomials(X.nvars, m)
    images = [
        product_rule_image(X, MultiPoly.from_monomial(X.nvars, mono)) for mono in columns
    ]
    split = [{mono: k_powers(c) for mono, c in img.terms.items()} for img in images]
    out_keys = sorted(
        {(mono, power) for img in split for mono, cs in img.items() for power in range(len(cs))},
        key=lambda mk: (monomial_key(mk[0]), mk[1]), reverse=True,
    )
    matrix = []
    for mono, power in out_keys:
        cs_of = [img.get(mono, ()) for img in split]
        matrix.append([Fraction(cs[power]) if power < len(cs) else Fraction(0) for cs in cs_of])
    return matrix, columns


def kernel_oracle(X, m):
    """Kernel basis and dimension via the naive dense path."""
    matrix, columns = annihilation_matrix(X, m)
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
