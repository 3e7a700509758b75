"""Exact kernel computation for sparse rational matrices.

The columns are split into the connected blocks of the row/column graph;
each row goes to the block of its columns.  The kernel is the direct sum of
the block kernels, and its canonical basis is the union of the canonical
block bases, ordered by free column.

A block with at least as many rows as columns is first reduced mod the prime
p = 2^31 - 1, densely in numpy int64 (entries stay below 2^31, so products
fit).  Rank mod p is at most the rank over Q, so full column rank mod p
proves that the block has no kernel.  Every other block takes the exact path.

The exact path is division-free over the integers.  Each row, in order, is
made a primitive integer row and inserted into a table {leading column:
pivot row}: while its leading column has a pivot, it is cross-multiplied
with that pivot and divided by its content.  It becomes the pivot of the
first free leading column it reaches, or vanishes.  So the pivot of a
column is the first row that still has a nonzero there once the earlier
columns are eliminated: first-nonzero pivoting, with the same integers as a
sweep over the columns.  Back-substitution then gives the canonical reduced
echelon kernel basis: one vector per free column, with a 1 at that free
column and 0 at every other free column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

import numpy as np

SparseRow = Dict[int, Fraction]  # entries may also be ints

PIVOT_RULE = "first-nonzero"

PRIME = 2**31 - 1


def _blocks(rows: Sequence[SparseRow], ncols: int) -> List[Tuple[List[int], List[SparseRow]]]:
    """Connected components of the row/column graph as (columns, rows) pairs.

    Columns and rows keep their order within a block; blocks are ordered by
    their first column.  Empty rows belong to no block.
    """
    root = list(range(ncols))

    def find(c: int) -> int:
        while root[c] != c:
            root[c] = root[root[c]]
            c = root[c]
        return c

    for row in rows:
        if row:
            first, *rest = row
            first = find(first)
            for c in rest:
                root[find(c)] = first
    blocks: Dict[int, Tuple[List[int], List[SparseRow]]] = {}
    for c in range(ncols):
        blocks.setdefault(find(c), ([], []))[0].append(c)
    for row in rows:
        if row:
            blocks[find(next(iter(row)))][1].append(row)
    return list(blocks.values())


def _full_rank_mod_p(rows: Sequence[SparseRow], cols: Sequence[int]) -> bool:
    """Whether the block has full column rank mod PRIME (so no kernel over Q)."""
    if len(rows) < len(cols):
        return False
    index = {c: j for j, c in enumerate(cols)}
    inverse = {}  # one inverse mod PRIME per distinct denominator
    a = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for i, row in enumerate(rows):
        for c, v in row.items():
            d = v.denominator
            if d not in inverse:
                if not d % PRIME:
                    return False
                inverse[d] = pow(d, -1, PRIME)
            a[i, index[c]] = v.numerator * inverse[d] % PRIME
    for j in range(len(cols)):
        nonzero = np.flatnonzero(a[j:, j])
        if not nonzero.size:
            return False
        if nonzero[0]:
            a[[j, j + nonzero[0]]] = a[[j + nonzero[0], j]]
        a[j, j:] = a[j, j:] * pow(int(a[j, j]), -1, PRIME) % PRIME
        below = j + nonzero[1:]
        a[below, j:] = (a[below, j:] - a[below, j:j + 1] * a[j, j:]) % PRIME
    return True


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _echelon(rows: Sequence[SparseRow]) -> Dict[int, Dict[int, int]]:
    """Pivot table {leading column: primitive integer row} of the rows."""
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        scale = lcm(*(v.denominator for v in row.values()))
        row = _primitive({c: int(v * scale) for c, v in row.items() if v})
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


def _exact_kernel(rows: Sequence[SparseRow], cols: Sequence[int]) -> Tuple[List[SparseRow], int]:
    """Canonical kernel vectors {column: value} and rank of one block."""
    pivots = _echelon(rows)
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


def sparse_kernel_basis(
    rows: Sequence[SparseRow], ncols: int
) -> Tuple[List[Tuple[Fraction, ...]], int]:
    """Kernel basis and rank of the matrix given as sparse rational rows."""
    vectors: List[SparseRow] = []
    rank = 0
    for cols, block in _blocks(rows, ncols):
        if _full_rank_mod_p(block, cols):
            rank += len(cols)
        else:
            block_vectors, block_rank = _exact_kernel(block, cols)
            vectors += block_vectors
            rank += block_rank
    # The free column of a canonical vector is its largest column.
    vectors.sort(key=max)
    zero = Fraction(0)
    return [tuple(vec.get(c, zero) for c in range(ncols)) for vec in vectors], rank
