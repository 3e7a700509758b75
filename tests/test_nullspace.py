import random
from fractions import Fraction
from math import lcm

import pytest

from bianchi_integrals.nullspace import PIVOT_RULE, sparse_kernel_basis

from oracle import dense_kernel, dense_rank


def to_sparse(matrix):
    """Integer rows: each rational row times the lcm of its denominators."""
    rows = []
    for row in matrix:
        d = lcm(*(Fraction(v).denominator for v in row))
        rows.append({j: int(v * d) for j, v in enumerate(row) if v})
    return rows


def test_pivot_rule_is_documented():
    assert PIVOT_RULE == "first-nonzero"


def test_identity_has_trivial_kernel():
    matrix = [[int(i == j) for j in range(4)] for i in range(4)]
    basis, rank = sparse_kernel_basis(to_sparse(matrix), 4)
    assert rank == 4
    assert basis == []


def test_zero_matrix_kernel_is_everything():
    basis, rank = sparse_kernel_basis([], 3)
    assert rank == 0
    assert len(basis) == 3
    assert basis[0] == (1, 0, 0)
    assert basis[1] == (0, 1, 0)
    assert basis[2] == (0, 0, 1)


def test_known_small_kernel():
    # x + y + z = 0, x - z = 0 -> kernel spanned by (1, -2, 1)
    matrix = [[1, 1, 1], [1, 0, -1]]
    basis, rank = sparse_kernel_basis(to_sparse(matrix), 3)
    assert rank == 2
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[2]
    assert v[1] == -2 * v[0]


def test_canonical_free_column_pattern():
    # one pivot, two free columns: vectors carry the identity on free columns
    matrix = [[1, 2, 3]]
    basis, rank = sparse_kernel_basis(to_sparse(matrix), 3)
    assert rank == 1
    assert basis == [
        (Fraction(-2), Fraction(1), Fraction(0)),
        (Fraction(-3), Fraction(0), Fraction(1)),
    ]


def test_rational_entries():
    matrix = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    basis, rank = sparse_kernel_basis(to_sparse(matrix), 2)
    assert rank == 1
    assert len(basis) == 1
    assert basis[0] == (Fraction(-2, 3), Fraction(1))


def test_rank_nullity_and_membership_random():
    rng = random.Random(99)
    for trial in range(150):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        density = rng.uniform(0.2, 1.0)
        zero_col = rng.randrange(ncols) if rng.random() < 0.3 else None
        matrix = [
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if rng.random() < density and j != zero_col
                else Fraction(0)
                for j in range(ncols)
            ]
            for _ in range(nrows)
        ]
        if rng.random() < 0.3:
            matrix.insert(rng.randint(0, len(matrix)), [Fraction(0)] * ncols)
        if rng.random() < 0.3:
            matrix.insert(rng.randint(0, len(matrix)), list(rng.choice(matrix)))
        basis, rank = sparse_kernel_basis(to_sparse(matrix), ncols)
        assert rank + len(basis) == ncols
        assert rank == dense_rank(matrix)
        for vec in basis:
            for row in matrix:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        # the canonical basis itself, not just its span
        assert [list(v) for v in basis] == dense_kernel(matrix, ncols)


def test_big_integer_entries_stay_exact():
    rng = random.Random(5)
    matrix = [
        [Fraction(rng.randint(-(10**30), 10**30)) for _ in range(5)]
        for _ in range(3)
    ]
    basis, rank = sparse_kernel_basis(to_sparse(matrix), 5)
    assert rank + len(basis) == 5
    for vec in basis:
        for row in matrix:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_duplicate_rows_do_not_inflate_rank():
    matrix = [[1, 2, 3], [1, 2, 3], [2, 4, 6]]
    basis, rank = sparse_kernel_basis(to_sparse(matrix), 3)
    assert rank == 1
    assert len(basis) == 2


def _random_block(rng, nrows, ncols):
    """A random rational block; singular at random (a column is a combination)."""
    block = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if ncols >= 2 and rng.random() < 0.4:
        a, b = rng.sample(range(ncols), 2)
        f = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for row in block:
            row[b] = f * row[a]
    return block


def test_shuffled_block_diagonal_matches_oracle_random():
    # Blocks with their columns interleaved, tall, square and wide blocks,
    # some singular, plus all-zero columns and empty rows.
    rng = random.Random(7)
    for trial in range(60):
        shapes = [(rng.randint(1, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
        nzero = rng.randint(0, 2)
        ncols = sum(c for _, c in shapes) + nzero
        order = list(range(ncols))
        rng.shuffle(order)
        matrix = []
        start = 0
        for nrows, width in shapes:
            cols = order[start:start + width]
            start += width
            for brow in _random_block(rng, nrows, width):
                row = [Fraction(0)] * ncols
                for c, v in zip(cols, brow):
                    row[c] = v
                matrix.append(row)
        matrix += [[Fraction(0)] * ncols for _ in range(rng.randint(0, 2))]
        rng.shuffle(matrix)
        basis, rank = sparse_kernel_basis(to_sparse(matrix), ncols)
        assert rank == dense_rank(matrix)
        assert [list(v) for v in basis] == dense_kernel(matrix, ncols)


def test_full_rank_over_q_but_not_mod_p_falls_back():
    p = 2**31 - 1
    basis, rank = sparse_kernel_basis(to_sparse([[1, 1], [1, 1 + p]]), 2)
    assert rank == 2
    assert basis == []


@pytest.mark.parametrize("rows, ncols", [
    ([{0: Fraction(1, 2)}, {0: 1}], 1),  # a tall block: the mod-p path
    ([{0: Fraction(1, 2), 1: 1}], 2),  # a wide block: the exact path
])
def test_fraction_entry_raises_type_error(rows, ncols):
    # Stored into the int64 array of the mod-p path, numpy would truncate a
    # Fraction and so reduce another matrix; the rows must be integers.
    with pytest.raises(TypeError):
        sparse_kernel_basis(rows, ncols)
