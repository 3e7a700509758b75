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

A caller may also label each column and each row with (level, group).  If
every entry of a row lies in a column of the row's own label or of a lower
level, the matrix is block lower triangular, with one diagonal block per
label, and it has full column rank when every diagonal block has: the
part of a kernel vector on the lowest level where it is nonzero lies in
the kernel of that level's diagonal blocks.  The order is checked in one
pass over the nonzeros, which splits the rows into their diagonal entries
and links below them.  A matrix with no labels, or one that fails the
check, is its own diagonal with no links.  Every matrix then takes one
pipeline: a union-find splits the diagonal into connected pieces, and
the stacked elimination runs on all of them.  If every piece passes, the
kernel is empty.  Otherwise the union-find goes on over the links to join
the pieces into the components of the whole matrix, and only the
components that hold a failed piece take the exact path, since a
component is block triangular with its own pieces on the diagonal.

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
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

SparseRow = Dict[int, int]
Labels = Tuple[Sequence[Tuple[int, Hashable]], Sequence[Tuple[int, Hashable]]]

PIVOT_RULE = "first-nonzero"

PRIME = 2**31 - 1


def _find(root: List[int], c: int) -> int:
    """The root of c's tree in the union-find forest root, halving its path."""
    while root[c] != c:
        root[c] = root[root[c]]
        c = root[c]
    return c


def _join(root: List[int], rows: Iterable[Iterable[int]]) -> None:
    """Join the columns of each row in the union-find forest root."""
    for row in rows:
        if row:
            first, *rest = row
            first = _find(root, first)
            for c in rest:
                root[_find(root, c)] = first


def _components(root: List[int], rows: Sequence[SparseRow]) -> List[Tuple[List[int], List[SparseRow]]]:
    """The trees of the forest root as (columns, rows) pairs, each nonempty
    row in the tree of its columns.

    Columns and rows keep their order within a block; blocks are ordered by
    their first column.
    """
    blocks: Dict[int, Tuple[List[int], List[SparseRow]]] = {}
    for c in range(len(root)):
        blocks.setdefault(_find(root, c), ([], []))[0].append(c)
    for row in rows:
        if row:
            blocks[_find(root, next(iter(row)))][1].append(row)
    return list(blocks.values())


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


def _exact_kernel(rows: Sequence[SparseRow], cols: Sequence[int]) -> Tuple[List[Dict[int, Fraction]], int]:
    """Canonical kernel vectors {column: value} and rank of one block.

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
    return vectors, len(pivots)


def _diagonal_split(
    rows: Sequence[SparseRow], labels: Labels
) -> Optional[Tuple[List[SparseRow], List[List[int]]]]:
    """The diagonal blocks' rows and the links below them, or None if an
    entry lies above them.

    One pass over the nonzeros: an entry in a column of the row's own label
    belongs to the diagonal block of that label; one in a column of a lower
    level lies below the diagonal; any other entry breaks the order.  Each
    row with entries below the diagonal gives one link: their columns and
    one of its diagonal columns, so that joining the links to the diagonal
    pieces gives the components of the whole matrix.
    """
    col_labels, row_labels = labels
    diagonal, links = [], []
    for row, label in zip(rows, row_labels):
        level = label[0]
        own = {}
        below = []
        for c, v in row.items():
            col_label = col_labels[c]
            if col_label == label:
                own[c] = v
            elif col_label[0] >= level:
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
    rows: Sequence[SparseRow], ncols: int, labels: Optional[Labels] = None
) -> Tuple[List[Tuple[Fraction, ...]], int]:
    """Kernel basis and rank of the matrix given as sparse integer rows.

    labels, if given, is (column labels, row labels), each a (level, group)
    pair; they choose only the diagonal and the links of the module docstring.
    """
    split = _diagonal_split(rows, labels) if labels is not None else None
    diagonal, links = split or (rows, [])
    root = list(range(ncols))
    _join(root, diagonal)
    pieces = _components(root, diagonal)
    verdicts = _stacked_full_rank(pieces)
    if all(verdicts):
        return [], ncols
    _join(root, links)
    failed = {_find(root, cols[0]) for (cols, _), passed in zip(pieces, verdicts) if not passed}
    exact = [b for b in _components(root, rows) if _find(root, b[0][0]) in failed]
    vectors: List[Dict[int, Fraction]] = []
    rank = ncols
    for cols, block in exact:
        block_vectors, block_rank = _exact_kernel(block, cols)
        vectors += block_vectors
        rank -= len(cols) - block_rank
    # The free column of a canonical vector is its largest column.
    vectors.sort(key=max)
    zero = Fraction(0)
    return [tuple(vec.get(c, zero) for c in range(ncols)) for vec in vectors], rank
