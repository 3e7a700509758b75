import random
from fractions import Fraction
from math import comb, lcm

import pytest

from bianchi_integrals import nullspace
from bianchi_integrals.engine import _vector_to_poly, assemble_system, kernel_basis
from bianchi_integrals.multipoly import MultiPoly, leading_exponents
from bianchi_integrals.nullspace import (
    PIVOT_RULE,
    PRIME,
    _diagonal_split,
    _stacked_full_rank,
    _trees,
    sparse_kernel_basis,
)
from bianchi_integrals.vectorfields import BIANCHI_TABLE

import oracle
from conftest import connected_blocks, model_fields
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


@pytest.mark.parametrize("rows, ncols, levels", [
    ([{0: Fraction(1, 2)}, {0: 1}], 1, None),  # a tall block: the mod-p path
    ([{0: Fraction(1, 2), 1: 1}], 2, None),  # a wide block: the exact path
    # below the diagonal of a levelled system, where no entry is stored
    ([{0: 1}, {0: Fraction(1, 2), 1: 1}], 2, ([0, 1], [0, 1])),
])
def test_fraction_entry_raises_type_error(rows, ncols, levels):
    # Stored into the int64 array of the mod-p path, numpy would truncate a
    # Fraction and so reduce another matrix; the rows must be integers.
    with pytest.raises(TypeError):
        sparse_kernel_basis(rows, ncols, levels)


# -- the block-triangular certificate -------------------------------------------


def _labelled_system(rng, above):
    """A random block lower-triangular system: (matrix, levels, whether an
    entry lies above the diagonal blocks), with one such entry if `above`
    and some higher level allows it.

    Each block has an int level, often shared with other blocks, and a
    random diagonal block, singular at random and at times with fewer rows
    than columns; rows also get random entries in the columns of lower
    levels.  Rows and columns are shuffled.
    """
    levels = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
    shapes = [(rng.randint(0, 5), rng.randint(1, 4)) for _ in levels]
    ncols = sum(w for _, w in shapes)
    order = list(range(ncols))
    rng.shuffle(order)
    col_levels, cols_of, start = [None] * ncols, [], 0
    for level, (_, width) in zip(levels, shapes):
        cols_of.append(order[start:start + width])
        for c in cols_of[-1]:
            col_levels[c] = level
        start += width
    matrix, row_levels = [], []
    for level, cols, (nrows, width) in zip(levels, cols_of, shapes):
        lower = [c for c in range(ncols) if col_levels[c] < level]
        for brow in _random_block(rng, nrows, width):
            row = [Fraction(0)] * ncols
            for c, v in zip(cols, brow):
                row[c] = v
            for c in rng.sample(lower, min(len(lower), rng.randint(0, 3))):
                row[c] = Fraction(rng.randint(-9, 9))
            matrix.append(row)
            row_levels.append(level)
    # a column of a level above the row's
    pairs = [(i, c) for i, level in enumerate(row_levels) for c in range(ncols)
             if col_levels[c] > level]
    above = above and bool(pairs)
    if above:
        i, c = rng.choice(pairs)
        matrix[i][c] = Fraction(rng.choice([-3, -1, 1, 2]))
    shuffled = list(range(len(matrix)))
    rng.shuffle(shuffled)
    return [matrix[i] for i in shuffled], (col_levels, [row_levels[i] for i in shuffled]), above


def _diagonal_pieces(rows, ncols, levels):
    """The connected pieces of the diagonal blocks, or None if an entry lies above them."""
    split = _diagonal_split(rows, levels)
    return None if split is None else connected_blocks(split[0], ncols)


def test_labelled_systems_match_oracle_random():
    rng = random.Random(26)
    seen = set()
    for trial in range(300):
        matrix, levels, above = _labelled_system(rng, trial % 3 == 0)
        ncols = len(levels[0])
        rows = to_sparse(matrix)
        pieces = _diagonal_pieces(rows, ncols, levels)
        assert (pieces is None) == above
        basis, rank = sparse_kernel_basis(rows, ncols, levels)
        assert rank == dense_rank(matrix)
        assert [list(v) for v in basis] == dense_kernel(matrix, ncols)
        if pieces is not None:
            seen.add((all(_stacked_full_rank(pieces)), rank == ncols))
    # full rank certified, singular pieces with and without a kernel
    assert seen == {(True, True), (False, True), (False, False)}


def test_entry_above_the_diagonal_fails_the_order_check():
    # Each diagonal block alone is [1], but the entry of row 0 in column 1
    # lies above them, and the whole matrix is singular.
    levels = ([1, 2], [1, 2])
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1}]
    assert _diagonal_split(rows, levels) is None
    assert sparse_kernel_basis(rows, 2, levels) == ([(Fraction(-1), Fraction(1))], 1)
    assert dense_rank([[1, 1], [1, 1]]) == 1


@pytest.mark.parametrize("rows, rank", [
    # level 1 has no rows, but the rows of level 2 above it fix column 0
    ([{0: 1, 1: 1}, {1: 1}], 2),
    # level 1 is singular and the kernel reaches into level 2
    ([{0: 2, 1: 1}], 1),
])
def test_singular_diagonal_block_falls_back(rows, rank):
    levels = ([1, 2], [2] * len(rows))
    pieces = _diagonal_pieces(rows, 2, levels)
    assert pieces is not None and not all(_stacked_full_rank(pieces))
    matrix = [[Fraction(row.get(c, 0)) for c in range(2)] for row in rows]
    basis, got = sparse_kernel_basis(rows, 2, levels)
    assert got == rank == dense_rank(matrix)
    assert [list(v) for v in basis] == dense_kernel(matrix, 2)


def test_failed_pieces_take_the_exact_path_by_their_components_random(monkeypatch):
    # Joining the links below the diagonal to the pieces' union-find gives
    # the components of the whole matrix, and exactly those that hold a
    # failed piece reach the exact path, in one call: their columns in
    # ascending order and their rows in input order.  Without levels the
    # matrix is its own diagonal with no links, so its pieces are its
    # components, and exactly the failed ones reach the exact path.
    rng = random.Random(27)
    exact_calls = []

    def recording_exact_kernel(rows, cols):
        exact_calls.append((list(cols), list(rows)))
        return exact_kernel(rows, cols)

    exact_kernel = nullspace._exact_kernel
    monkeypatch.setattr(nullspace, "_exact_kernel", recording_exact_kernel)
    coupled = unlabelled = 0
    several = {True: 0, False: 0}  # systems that reach two or more components, by levels
    for _ in range(300):
        matrix, levels, _ = _labelled_system(rng, False)
        ncols = len(levels[0])
        rows = to_sparse(matrix)
        for given in (levels, None):
            diagonal, links = (rows, []) if given is None else _diagonal_split(rows, given)
            pieces = connected_blocks(diagonal, ncols)
            verdicts = _stacked_full_rank(pieces)
            failed = [cols for (cols, _), passed in zip(pieces, verdicts) if not passed]
            if not failed:
                continue
            root = list(range(ncols))
            _trees(root, diagonal)
            components = connected_blocks(rows, ncols)
            assert [cols for cols, _ in _trees(root, links)] == [cols for cols, _ in components]
            reached = [b for b in components if any(not set(cols).isdisjoint(b[0]) for cols in failed)]
            columns = sorted(c for cols, _ in reached for c in cols)
            exact_calls.clear()
            basis, rank = sparse_kernel_basis(rows, ncols, given)
            assert exact_calls == [(columns, [row for row in rows if row and min(row) in columns])]
            assert rank == dense_rank(matrix)
            assert [list(v) for v in basis] == dense_kernel(matrix, ncols)
            several[given is not None] += len(reached) > 1
            if given is None:
                assert reached == [b for b, passed in zip(pieces, verdicts) if not passed]
                unlabelled += 1
            else:
                coupled += any(len([p for p, _ in pieces if set(p) <= set(b[0])]) > 1
                               for b in reached)
    assert coupled > 100  # a failed piece joined below the diagonal to another piece
    assert unlabelled > 100
    # so the union of components, not one alone, is held to the dense oracle
    assert several[True] > 50 and several[False] > 50


@pytest.mark.parametrize("tag, widths", [
    ("I", [comb(m + 2, 2) for m in range(1, 9)]),  # the x4..x6 monomials
    ("II", [3, 7, 13, 22, 34, 50, 70, 95]),  # of 1287 columns at m = 8
])
@pytest.mark.parametrize("k", [Fraction(1, 2), None], ids=["k=1/2", "symbolic"])
def test_the_exact_path_stays_confined_on_the_models(monkeypatch, tag, widths, k):
    # The whole matrix on the exact path is 3-5 times slower.
    exact_calls = []

    def recording_exact_kernel(rows, cols):
        exact_calls.append(len(cols))
        return exact_kernel(rows, cols)

    exact_kernel = nullspace._exact_kernel
    monkeypatch.setattr(nullspace, "_exact_kernel", recording_exact_kernel)
    fields = model_fields(tag, k)
    for m in range(1, 9):
        kernel_basis(fields, m)
    assert exact_calls == widths


def test_row_order_leaves_the_canonical_basis_random():
    rng = random.Random(28)
    for _ in range(100):
        ncols = rng.randint(1, 8)
        rank = rng.randint(0, ncols)
        generators = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rank)]
        matrix = [[sum(rng.randint(-2, 2) * g[c] for g in generators) for c in range(ncols)]
                  for _ in range(rng.randint(0, 10))]
        rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
        expected = sparse_kernel_basis(rows, ncols)
        assert [list(v) for v in expected[0]] == dense_kernel(matrix, ncols)
        for _ in range(4):
            rng.shuffle(rows)
            assert sparse_kernel_basis(rows, ncols) == expected


def test_row_order_leaves_the_kernels_of_the_models():
    for tag in ("I", "II"):
        for m in (2, 3, 4):
            system = assemble_system(model_fields(tag, None), m)
            expected = sparse_kernel_basis(system.rows, system.ncols, system.levels)
            order = list(range(system.nrows))
            random.Random(m).shuffle(order)
            levels = (system.levels[0], [system.levels[1][i] for i in order])
            assert sparse_kernel_basis([system.rows[i] for i in order], system.ncols, levels) == expected


def _rank_mod_p(matrix):
    """Rank mod PRIME by textbook elimination on Python ints."""
    work = [[v % PRIME for v in row] for row in matrix]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], -1, PRIME)
        for i in range(rank + 1, len(work)):
            f = work[i][c] * inv
            work[i] = [(a - f * b) % PRIME for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def test_stacked_verdicts_match_rank_mod_p_per_piece_random():
    # Pieces of many widths share a stack, so the narrower ones are padded;
    # some are rank deficient, some have fewer rows than columns, and some
    # have full rank over Q but not mod PRIME.
    rng = random.Random(31)
    for trial in range(40):
        pieces, dense = [], []
        first = 0
        for _ in range(rng.randint(1, 12)):
            width = rng.randint(1, 9)
            nrows = rng.randint(max(0, width - 2), width + 4)
            matrix = [[rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-2**40, 2**40)])
                       for _ in range(width)] for _ in range(nrows)]
            if nrows and width >= 2 and rng.random() < 0.4:
                a, b = rng.sample(range(width), 2)
                for row in matrix:
                    row[b] = 3 * row[a]
                if rng.random() < 0.5:  # independent over Q, not mod PRIME
                    matrix[0][b] += PRIME
            cols = list(range(first, first + width))
            first += width
            pieces.append((cols, [{c: v for c, v in zip(cols, row) if v} for row in matrix]))
            dense.append(matrix)
        verdicts = _stacked_full_rank(pieces)
        assert verdicts == [_rank_mod_p(m) == len(cols) for m, (cols, _) in zip(dense, pieces)]


@pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
@pytest.mark.parametrize("k", [Fraction(1, 2), None], ids=["k=1/2", "symbolic"])
def test_certified_kernels_of_the_models(tag, k):
    # The order holds on every system, and the levelled kernel is the
    # unlevelled one.  TestKernelVsOracle holds both to the dense oracle up to
    # degree 3; from degree 5 on the oracle takes minutes a system.
    fields = model_fields(tag, k)
    for m in range(1, 7):
        system = assemble_system(fields, m)
        assert _diagonal_split(system.rows, system.levels) is not None
        assert (sparse_kernel_basis(system.rows, system.ncols, system.levels)
                == sparse_kernel_basis(system.rows, system.ncols))


@pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
@pytest.mark.parametrize("k", [Fraction(0), Fraction(1, 2), Fraction(3, 7), None],
                         ids=["k=0", "k=1/2", "k=3/7", "symbolic"])
def test_a_level_splits_by_alpha_on_the_models(tag, k):
    # A column's level is max(|alpha|, 2) for its x1..x3 exponent alpha.
    # Above level 2 the diagonal of a row holds only columns of the row's
    # own alpha, so each diagonal piece there holds one alpha, and the
    # levels alone give the pieces that (level, alpha) labels would.
    fields = model_fields(tag, k)
    for m in range(1, 9):
        system = assemble_system(fields, m)
        col_levels, row_levels = system.levels
        diagonal, _ = _diagonal_split(system.rows, system.levels)
        alphas = leading_exponents(system.outputs, len(system.columns[0]), 3)
        for row, alpha, level in zip(diagonal, alphas, row_levels):
            assert level == 2 or all(system.columns[c][:3] == alpha for c in row)
        for cols, _ in connected_blocks(diagonal, system.ncols):
            if col_levels[cols[0]] >= 3:
                assert len({system.columns[c][:3] for c in cols}) == 1


@pytest.mark.parametrize("tag, dim", [("IX", 0), ("II", 1)])
def test_a_field_that_breaks_the_order_takes_the_unordered_path(tag, dim):
    # x4 x5 d/dx1 lowers |alpha| by 1, so from degree 3 on a column at level
    # 3 or more has an entry in a row of a lower level, above the diagonal;
    # up to degree 2 every column is at level 2.  The kernel must then come
    # from the whole matrix.
    X = model_fields(tag, Fraction(1, 2))[0]
    x4, x5 = MultiPoly.variable(6, 3), MultiPoly.variable(6, 4)
    fields = [(X[0] + x4 * x5,) + X[1:]]
    for m in range(1, 5):
        system = assemble_system(fields, m)
        assert (_diagonal_split(system.rows, system.levels) is None) == (m >= 3)
        oracle_vectors, columns = oracle.kernel_oracle(fields, m)
        assert kernel_basis(fields, m) == [_vector_to_poly(v, columns) for v in oracle_vectors]
    assert len(oracle_vectors) == dim
