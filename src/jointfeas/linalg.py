"""Exact linear algebra on integer matrices, fraction-free (Bareiss).

One update, :func:`pivot`, is the package's only fraction-free
elimination step (Bareiss, Math. Comp. 22, 1968; Edmonds, J. Res. NBS
71B, 1967).  :func:`echelon` runs Gauss-Jordan elimination with it, and
the exact simplex loop of :mod:`jointfeas.simplex` pivots its integer
tableau with it.  Rank and independent rows, nullspaces, solves and
inverses are all read off :func:`echelon`'s result.

Rational input is scaled to integers one row at a time
(:func:`integral`); that changes neither a row space, nor a nullspace,
nor the solutions of a linear system.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

__all__ = [
    "echelon",
    "independent_rows",
    "integral",
    "inverse",
    "nullspace",
    "pivot",
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


def pivot(tab: np.ndarray, row: int, col: int, d: int) -> int:
    """One fraction-free pivot on ``tab[row, col]``, in place; returns the pivot p.

    ``tab`` is an int64 or object (Python int) array and ``d`` the
    previous pivot (1 before the first).  Every row but ``row`` becomes
    ``(p * r - r[col] * tab[row]) // d``; the pivot row is kept.  After
    k pivots every entry is, up to sign, a minor of the input: of order
    k in a pivot row and k + 1 in any other, with ``d`` the determinant
    of the pivot minor (Cramer's rule).  So every division is exact, the
    entries stay integers, and the array stays ``d`` times the rationally
    reduced one.  p comes back as a Python int, so that callers can
    build ``Fraction``s from it.
    """
    prow = tab[row].copy()
    p = prow[col]
    update = np.multiply.outer(tab[:, col], prow)
    tab *= p
    tab -= update
    tab //= d
    tab[row] = prow
    return int(p)


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
    if not rows:
        return [], [], 1
    tab = np.array(rows, object)
    limit = tab.shape[1] if pivot_cols is None else pivot_cols
    pivots: list[int] = []
    d = 1
    for c in range(limit):
        r = len(pivots)
        if r == len(tab):
            break
        nonzero = np.flatnonzero(tab[r:, c])
        if not nonzero.size:
            continue
        tab[[r, r + nonzero[0]]] = tab[[r + nonzero[0], r]]
        d = pivot(tab, r, c, d)
        pivots.append(c)
    return tab.tolist(), pivots, d


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
