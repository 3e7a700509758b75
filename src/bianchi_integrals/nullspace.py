"""Exact kernel computation for sparse integer matrices.

The rows are {column: int}: a row producer scales its rows to integers,
which keeps the kernel, and a Fraction entry raises TypeError.  The columns
are split into the connected blocks of the row/column graph; each row goes
to the block of its columns.  The kernel is the direct sum of the block
kernels, and its canonical basis is the union of the canonical block bases,
ordered by free column.

Rank mod the prime p = 2^31 - 1 is at most the rank over Q, so full column
rank mod p proves that a block has no kernel; every other block takes the
exact path.  Many blocks take one stacked elimination: blocks of similar
width share a (B, R, W) numpy int64 array, the narrower padded with unit
columns that add exactly the padding to their rank, and one elimination
over the array gives each block its verdict.

A caller may also give each column and each row an int level.  If every
entry of a row lies in a column of its level or a lower one, the matrix is
block lower triangular, with one diagonal block per level, and it has full
column rank when every diagonal block has: on the lowest level L where a
kernel vector is nonzero, the rows of level L see only its part on level
L, which so lies in the kernel of that level's block.  The order is
checked in one pass over the nonzeros, which splits the rows into their
diagonal entries and links below them.  A matrix with no levels, or one
that fails the check, is its own diagonal with no links.  Every matrix
then takes one pipeline: a union-find splits the diagonal into connected
pieces, and the stacked elimination runs on all of them.  If every piece
passes, the kernel is empty.  Otherwise the union-find goes on over the
links to join the pieces into the components of the whole matrix, and only
the components that hold a failed piece take the exact path, since a
component is block triangular with its own pieces on the diagonal.  They
take it in one elimination, columns ascending: rows of different
components share no column, so each gets its own canonical vectors.

The exact path is division-free over the integers.  Each row, sparsest
first, is made a primitive integer row and inserted into a table {leading
column: pivot row}: while its leading column has a pivot, it is
cross-multiplied with that pivot and divided by its content.  It becomes
the pivot of the first free leading column it reaches, or vanishes.  So
the pivot of a column is the first row that still has a nonzero there once
the earlier columns are eliminated: first-nonzero pivoting, with the same
integers as a sweep over the columns.  Back-substitution then gives the
canonical reduced echelon kernel basis: one vector per free column, with a
1 at that free column and 0 at every other free column.  The free columns
are those that lead no row of any echelon form of the row space, so the
basis does not depend on the order the rows are inserted in.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

SparseRow = Dict[int, int]

PIVOT_RULE = "first-nonzero"

PRIME = 2**31 - 1


def _trees(root: List[int], rows: Sequence[Iterable[int]]) -> List[Tuple[List[int], List]]:
    """Join the columns of each row into the union-find forest root, and
    return its trees as (columns, rows) pairs, each nonempty row in the
    tree of its columns.

    Columns and rows keep their order within a tree; trees are ordered by
    their first column.
    """
    def find(c: int) -> int:
        while root[c] != c:
            root[c] = root[root[c]]  # halve the path
            c = root[c]
        return c

    for row in rows:
        if row:
            first, *rest = row
            first = find(first)
            for c in rest:
                root[find(c)] = first
    trees: Dict[int, Tuple[List[int], List]] = {}
    for c in range(len(root)):
        trees.setdefault(find(c), ([], []))[0].append(c)
    for row in rows:
        if row:
            trees[find(next(iter(row)))][1].append(row)
    return list(trees.values())


def _stacked_full_rank(pieces: Sequence[Tuple[List[int], List[SparseRow]]]) -> List[bool]:
    """Whether each (columns, rows) piece has full column rank mod PRIME.

    A piece with fewer rows than columns fails at once.  The others are
    grouped by the bit length of their width into (B, R, W) int64 stacks,
    W the widest; a piece of width w < W gets W - w unit columns, each with
    a row of its own, which adds exactly W - w to its rank.  Column j is
    eliminated in every piece at once: the first row with a nonzero entry
    there is the pivot, each other such row r becomes
    pivot * r - r[j] * pivot row (no inverse; entries stay below 2^31, so
    products fit), and the pivot row is cleared.  A piece passes when
    every column finds a pivot.
    """
    verdicts = [False] * len(pieces)
    classes: Dict[int, List[int]] = {}
    for i, (cols, rows) in enumerate(pieces):
        if len(rows) >= len(cols):
            classes.setdefault(len(cols).bit_length(), []).append(i)
    for members in classes.values():
        width = max(len(pieces[i][0]) for i in members)
        height = max(len(pieces[i][1]) + width - len(pieces[i][0]) for i in members)
        a = np.zeros((len(members), height, width), dtype=np.int64)
        for b, i in enumerate(members):
            cols, rows = pieces[i]
            index = {c: j for j, c in enumerate(cols)}
            at: List[int] = []  # flat positions in the piece's (R, W) slice
            values: List[int] = []
            for r, row in enumerate(rows):
                at += [r * width + index[c] for c in row]
                # numpy would truncate a Fraction stored here; index() rejects it.
                values += [operator.index(v) % PRIME for v in row.values()]
            at += [(len(rows) - len(cols) + j) * width + j for j in range(len(cols), width)]
            values += [1] * (width - len(cols))
            a[b].flat[at] = values
        stack = np.arange(len(members))
        passed = np.ones(len(members), dtype=bool)
        for j in range(width):
            nonzero = a[:, :, j] != 0
            pivot = nonzero.argmax(axis=1)
            passed &= nonzero[stack, pivot]
            if not passed.any():
                break
            nonzero[stack, pivot] = False
            row = a[stack, pivot, j:][:, None, :]
            a[stack, pivot, j:] = 0
            below = np.flatnonzero(nonzero.any(axis=0))
            if below.size:
                lower = a[:, below, j:]
                a[:, below, j:] = (lower * row[:, :, :1] - lower[:, :, :1] * row) % PRIME
        for b, i in enumerate(members):
            verdicts[i] = bool(passed[b])
    return verdicts


def _primitive(row: SparseRow) -> SparseRow:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def echelon(rows: Sequence[SparseRow]) -> Dict[int, SparseRow]:
    """Pivot table {leading column: primitive row} of the rows, inserted in
    order; its size is their rank.  Any ordered keys serve as columns."""
    pivots: Dict[int, SparseRow] = {}
    for row in rows:
        row = _primitive({c: v for c, v in row.items() if v})
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            p, f = pivot[lead], row[lead]
            row = _primitive({
                c: v for c in row.keys() | pivot.keys()
                if (v := row.get(c, 0) * p - pivot.get(c, 0) * f)
            })
    return pivots


def _exact_kernel(rows: Sequence[SparseRow], cols: Sequence[int]) -> List[Dict[int, Fraction]]:
    """Canonical kernel vectors {column: value} of the rows on the ascending
    columns cols, ordered by free column.

    The pivot columns, and so the canonical basis, depend only on the row
    space, so the rows are inserted sparsest first, which fills in least.
    """
    pivots = echelon(sorted(rows, key=len))
    pivot_cols = sorted(pivots, reverse=True)
    vectors = []
    for free in (c for c in cols if c not in pivots):
        # A pivot row has entries only at columns >= its pivot, so the
        # pivot columns right of `free` stay 0.
        vec = {free: Fraction(1)}
        for col in (c for c in pivot_cols if c < free):
            row = pivots[col]
            s = sum(v * vec[c] for c, v in row.items() if c in vec)
            if s:
                vec[col] = -s / row[col]
        vectors.append(vec)
    return vectors


def _diagonal_split(
    rows: Sequence[SparseRow], levels: Tuple[Sequence[int], Sequence[int]]
) -> Optional[Tuple[List[SparseRow], List[List[int]]]]:
    """The diagonal blocks' rows and the links below them, or None if an
    entry lies above them.

    One pass over the nonzeros: an entry in a column of the row's level
    belongs to the diagonal, one in a column of a lower level lies below it,
    and one of a higher level breaks the order.  Each row with entries below
    the diagonal gives one link: their columns and one of its diagonal
    columns, so that joining the links to the diagonal pieces gives the
    components of the whole matrix.
    """
    col_levels, row_levels = levels
    diagonal, links = [], []
    for row, level in zip(rows, row_levels):
        own = {}
        below = []
        for c, v in row.items():
            col_level = col_levels[c]
            if col_level == level:
                own[c] = v
            elif col_level > level:
                return None
            else:  # never stored, but rows are ints on every path
                operator.index(v)
                below.append(c)
        if below:
            diagonal.append(own)
            links.append(below + list(own)[:1])
        else:
            diagonal.append(row)
    return diagonal, links


def sparse_kernel_basis(
    rows: Sequence[SparseRow], ncols: int, levels: Optional[Tuple[Sequence[int], Sequence[int]]] = None
) -> Tuple[List[Tuple[Fraction, ...]], int]:
    """Kernel basis and rank of the matrix given as sparse integer rows.

    levels, if given, is (column levels, row levels), one int each; they
    choose only the diagonal and the links of the module docstring.  Every
    component the exact path skips has full column rank, so the rank is
    ncols minus the number of vectors.
    """
    split = _diagonal_split(rows, levels) if levels is not None else None
    diagonal, links = split or (rows, [])
    root = list(range(ncols))
    pieces = _trees(root, diagonal)
    verdicts = _stacked_full_rank(pieces)
    if all(verdicts):
        return [], ncols
    failed = {cols[0] for (cols, _), passed in zip(pieces, verdicts) if not passed}
    reached = {c for cols, _ in _trees(root, links) if not failed.isdisjoint(cols) for c in cols}
    vectors = _exact_kernel([row for row in rows if row and next(iter(row)) in reached], sorted(reached))
    zero = Fraction(0)
    return [tuple(vec.get(c, zero) for c in range(ncols)) for vec in vectors], ncols - len(vectors)
