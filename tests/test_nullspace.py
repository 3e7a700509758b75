import random
from fractions import Fraction
from math import lcm

import pytest

from bianchi_integrals import nullspace
from bianchi_integrals.engine import assemble_system
from bianchi_integrals.nullspace import (
    PIVOT_RULE,
    PRIME,
    _components,
    _diagonal_split,
    _join,
    _stacked_full_rank,
    sparse_kernel_basis,
)
from bianchi_integrals.vectorfields import BIANCHI_TABLE

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


@pytest.mark.parametrize("rows, ncols, labels", [
    ([{0: Fraction(1, 2)}, {0: 1}], 1, None),  # a tall block: the mod-p path
    ([{0: Fraction(1, 2), 1: 1}], 2, None),  # a wide block: the exact path
    # below the diagonal of a labelled system, where no entry is stored
    ([{0: 1}, {0: Fraction(1, 2), 1: 1}], 2, ([(0, "a"), (1, "b")], [(0, "a"), (1, "b")])),
])
def test_fraction_entry_raises_type_error(rows, ncols, labels):
    # Stored into the int64 array of the mod-p path, numpy would truncate a
    # Fraction and so reduce another matrix; the rows must be integers.
    with pytest.raises(TypeError):
        sparse_kernel_basis(rows, ncols, labels)


# -- the block-triangular certificate -------------------------------------------


def _labelled_system(rng, above):
    """A random block lower-triangular system: (matrix, labels, whether an
    entry lies above the diagonal blocks), with one such entry if `above`
    and some other group allows it.

    Each group has a level and a random diagonal block, singular at random
    and at times with fewer rows than columns; rows also get random entries
    in the columns of lower levels.  Rows and columns are shuffled.
    """
    groups = [(rng.randint(0, 3), g) for g in range(rng.randint(1, 5))]
    shapes = [(rng.randint(0, 5), rng.randint(1, 4)) for _ in groups]
    ncols = sum(w for _, w in shapes)
    order = list(range(ncols))
    rng.shuffle(order)
    col_labels, cols_of, start = [None] * ncols, [], 0
    for label, (_, width) in zip(groups, shapes):
        cols_of.append(order[start:start + width])
        for c in cols_of[-1]:
            col_labels[c] = label
        start += width
    matrix, row_labels = [], []
    for label, cols, (nrows, width) in zip(groups, cols_of, shapes):
        lower = [c for c in range(ncols) if col_labels[c][0] < label[0]]
        for brow in _random_block(rng, nrows, width):
            row = [Fraction(0)] * ncols
            for c, v in zip(cols, brow):
                row[c] = v
            for c in rng.sample(lower, min(len(lower), rng.randint(0, 3))):
                row[c] = Fraction(rng.randint(-9, 9))
            matrix.append(row)
            row_labels.append(label)
    # a column of another group at the row's level or above
    pairs = [(i, c) for i, label in enumerate(row_labels) for c in range(ncols)
             if col_labels[c] != label and col_labels[c][0] >= label[0]]
    above = above and bool(pairs)
    if above:
        i, c = rng.choice(pairs)
        matrix[i][c] = Fraction(rng.choice([-3, -1, 1, 2]))
    shuffled = list(range(len(matrix)))
    rng.shuffle(shuffled)
    return [matrix[i] for i in shuffled], (col_labels, [row_labels[i] for i in shuffled]), above


def _diagonal_pieces(rows, ncols, labels):
    """The connected pieces of the diagonal blocks, or None if an entry lies above them."""
    split = _diagonal_split(rows, labels)
    return None if split is None else connected_blocks(split[0], ncols)


def test_labelled_systems_match_oracle_random():
    rng = random.Random(26)
    seen = set()
    for trial in range(300):
        matrix, labels, above = _labelled_system(rng, trial % 3 == 0)
        ncols = len(labels[0])
        rows = to_sparse(matrix)
        pieces = _diagonal_pieces(rows, ncols, labels)
        assert (pieces is None) == above
        basis, rank = sparse_kernel_basis(rows, ncols, labels)
        assert rank == dense_rank(matrix)
        assert [list(v) for v in basis] == dense_kernel(matrix, ncols)
        if pieces is not None:
            seen.add((all(_stacked_full_rank(pieces)), rank == ncols))
    # full rank certified, singular pieces with and without a kernel
    assert seen == {(True, True), (False, True), (False, False)}


def test_entry_above_the_diagonal_fails_the_order_check():
    # Each diagonal block alone is [1], but the entry of row 0 in column 1
    # lies above them, and the whole matrix is singular.
    labels = ([(1, "a"), (2, "b")], [(1, "a"), (2, "b")])
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1}]
    assert _diagonal_split(rows, labels) is None
    assert sparse_kernel_basis(rows, 2, labels) == ([(Fraction(-1), Fraction(1))], 1)
    assert dense_rank([[1, 1], [1, 1]]) == 1


@pytest.mark.parametrize("rows, rank", [
    # group "a" has no rows, but the rows of "b" below it fix column 0
    ([{0: 1, 1: 1}, {1: 1}], 2),
    # group "a" is singular and the kernel reaches into group "b"
    ([{0: 2, 1: 1}], 1),
])
def test_singular_diagonal_block_falls_back(rows, rank):
    labels = ([(1, "a"), (2, "b")], [(2, "b")] * len(rows))
    pieces = _diagonal_pieces(rows, 2, labels)
    assert pieces is not None and not all(_stacked_full_rank(pieces))
    matrix = [[Fraction(row.get(c, 0)) for c in range(2)] for row in rows]
    basis, got = sparse_kernel_basis(rows, 2, labels)
    assert got == rank == dense_rank(matrix)
    assert [list(v) for v in basis] == dense_kernel(matrix, 2)


def test_failed_pieces_take_the_exact_path_by_their_components_random(monkeypatch):
    # Joining the links below the diagonal to the pieces' union-find gives
    # the components of the whole matrix, and exactly those that hold a
    # failed piece reach the exact path.  Without labels the matrix is its
    # own diagonal with no links, so its pieces are its components, and
    # exactly the failed ones reach the exact path.
    rng = random.Random(27)
    exact_calls = []

    def recording_exact_kernel(rows, cols):
        exact_calls.append((list(cols), list(rows)))
        return exact_kernel(rows, cols)

    exact_kernel = nullspace._exact_kernel
    monkeypatch.setattr(nullspace, "_exact_kernel", recording_exact_kernel)
    coupled = unlabelled = 0
    for _ in range(300):
        matrix, labels, _ = _labelled_system(rng, False)
        ncols = len(labels[0])
        rows = to_sparse(matrix)
        for given in (labels, None):
            diagonal, links = (rows, []) if given is None else _diagonal_split(rows, given)
            pieces = connected_blocks(diagonal, ncols)
            verdicts = _stacked_full_rank(pieces)
            failed = [cols for (cols, _), passed in zip(pieces, verdicts) if not passed]
            if not failed:
                continue
            root = list(range(ncols))
            _join(root, diagonal)
            _join(root, links)
            components = _components(root, rows)
            assert components == connected_blocks(rows, ncols)
            exact_calls.clear()
            basis, rank = sparse_kernel_basis(rows, ncols, given)
            assert exact_calls == [b for b in components
                                   if any(not set(cols).isdisjoint(b[0]) for cols in failed)]
            assert rank == dense_rank(matrix)
            assert [list(v) for v in basis] == dense_kernel(matrix, ncols)
            if given is None:
                assert exact_calls == [b for b, passed in zip(pieces, verdicts) if not passed]
                unlabelled += 1
            else:
                coupled += any(len([p for p, _ in pieces if set(p) <= set(b[0])]) > 1
                               for b in exact_calls)
    assert coupled > 100  # a failed piece joined below the diagonal to another piece
    assert unlabelled > 100


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
            expected = sparse_kernel_basis(system.rows, system.ncols, system.labels)
            order = list(range(system.nrows))
            random.Random(m).shuffle(order)
            labels = (system.labels[0], [system.labels[1][i] for i in order])
            assert sparse_kernel_basis([system.rows[i] for i in order], system.ncols, labels) == expected


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
    # The order holds on every system, and the labelled kernel is the
    # unlabelled one.  TestKernelVsOracle holds both to the dense oracle up to
    # degree 3; from degree 5 on the oracle takes minutes a system.
    fields = model_fields(tag, k)
    for m in range(1, 7):
        system = assemble_system(fields, m)
        assert _diagonal_split(system.rows, system.labels) is not None
        assert (sparse_kernel_basis(system.rows, system.ncols, system.labels)
                == sparse_kernel_basis(system.rows, system.ncols))
