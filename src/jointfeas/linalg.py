"""Exact linear algebra on integer matrices, fraction-free (Bareiss).

One kernel, :func:`echelon`, runs fraction-free Gauss-Jordan elimination
(Bareiss, Math. Comp. 22, 1968).  Every intermediate entry is a minor of
the input, so all arithmetic stays in Python ints and every division is
exact.  Rank and independent rows, nullspaces, solves and inverses are
all read off its result.

Rational input is scaled to integers one row at a time
(:func:`integral`); that changes neither a row space, nor a nullspace,
nor the solutions of a linear system.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

__all__ = [
    "echelon",
    "independent_rows",
    "integral",
    "inverse",
    "nullspace",
    "primitive",
    "solve",
]

IntVec = tuple[int, ...]


def integral(v: Sequence[Fraction | int]) -> list[int]:
    """The rational vector times the least common multiple of its denominators."""
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v]


def primitive(v: Sequence[int]) -> IntVec:
    """The integer vector divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def echelon(
    rows: Sequence[Sequence[int]], pivot_cols: int | None = None
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Pivots are taken left to right among the first ``pivot_cols``
    columns (all columns by default), each in the first remaining row
    that is nonzero there.  Returns ``(matrix, pivots, d)``: the first
    ``len(pivots)`` rows of ``matrix`` are ``d`` times the reduced row
    echelon form, and the later rows vanish on the pivot-eligible
    columns.  ``d`` is the common pivot value, the determinant of the
    pivot minor up to sign (1 when there is no pivot).
    """
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    limit = ncols if pivot_cols is None else pivot_cols
    pivots: list[int] = []
    prev = 1
    for c in range(limit):
        r = len(pivots)
        if r == len(mat):
            break
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        prow = mat[r]
        piv = prow[c]
        for i, row in enumerate(mat):
            if i == r:
                continue
            f = row[c]
            if f:
                mat[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
            elif piv != prev:
                mat[i] = [piv * a // prev for a in row]
        pivots.append(c)
        prev = piv
    return mat, pivots, prev


def independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedily from the front."""
    if not rows:
        return []
    return echelon(list(zip(*rows)))[1]


def nullspace(rows: Sequence[Sequence[int]]) -> list[IntVec]:
    """Primitive integer basis of {x : rows . x = 0}, one vector per free column.

    Each vector is the reduced-echelon basis vector of its free column,
    scaled to coprime integers with a positive entry there.
    """
    if not rows:
        return []
    mat, pivots, d = echelon(rows)
    sign = 1 if d > 0 else -1
    pivot_set = set(pivots)
    basis: list[IntVec] = []
    for fc in range(len(rows[0])):
        if fc in pivot_set:
            continue
        vec = [0] * len(rows[0])
        vec[fc] = abs(d)
        for i, pc in enumerate(pivots):
            vec[pc] = -sign * mat[i][fc]
        basis.append(primitive(vec))
    return basis


def solve(
    rows: Sequence[Sequence[Fraction | int]], columns: Sequence[Sequence[Fraction | int]]
) -> list[list[Fraction] | None]:
    """Solve rows . x = b for each right-hand side b in ``columns``.

    One elimination serves every right-hand side.  Each solution sets
    the free variables to zero; it is None when the system has none.
    """
    n = len(rows[0])
    aug = [integral([*row, *(b[i] for b in columns)]) for i, row in enumerate(rows)]
    mat, pivots, d = echelon(aug, pivot_cols=n)
    rank = len(pivots)
    out: list[list[Fraction] | None] = []
    for j in range(n, n + len(columns)):
        if any(row[j] for row in mat[rank:]):
            out.append(None)
            continue
        x = [Fraction(0)] * n
        for i, pc in enumerate(pivots):
            x[pc] = Fraction(mat[i][j], d)
        out.append(x)
    return out


def inverse(square: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """``(adj, d)`` with ``square`` inverse equal to ``adj / d``."""
    n = len(square)
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(square)]
    mat, pivots, d = echelon(aug, pivot_cols=n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in mat], d
