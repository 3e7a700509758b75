"""Exact kernel computation for sparse rational matrices.

Forward elimination is division-free over the integers.  Each row, in
order, is made a primitive integer row and inserted into a table
{leading column: pivot row}: while its leading column has a pivot, it is
cross-multiplied with that pivot and divided by its content.  It becomes
the pivot of the first free leading column it reaches, or vanishes.  So
the pivot of a column is the first row that still has a nonzero there once
the earlier columns are eliminated: first-nonzero pivoting, with the same
integers as a sweep over the columns.  Back-substitution then gives the
canonical reduced echelon kernel basis: one vector per free column, with
a 1 at that free column and 0 at every other free column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

SparseRow = Dict[int, Fraction]

PIVOT_RULE = "first-nonzero"


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


def sparse_kernel_basis(
    rows: Sequence[SparseRow], ncols: int
) -> Tuple[List[Tuple[Fraction, ...]], int]:
    """Kernel basis and rank of the matrix given as sparse rational rows."""
    pivots = _echelon(rows)
    pivot_cols = sorted(pivots, reverse=True)
    zero = Fraction(0)
    basis: List[Tuple[Fraction, ...]] = []
    for free in (c for c in range(ncols) if c not in pivots):
        # A pivot row has entries only at columns >= its pivot, so the
        # pivot columns right of `free` stay 0.
        vec = {free: Fraction(1)}
        for col in (c for c in pivot_cols if c < free):
            row = pivots[col]
            s = sum(v * vec[c] for c, v in row.items() if c in vec)
            if s:
                vec[col] = -s / row[col]
        basis.append(tuple(vec.get(c, zero) for c in range(ncols)))
    return basis, len(pivots)
