"""Phase-1 simplex for equality-form feasibility, guided in floats, decided exactly.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables with Bland's smallest-index rule (finite, no
cycling).  The decision takes three steps:

1. **Float guide.**  The Bland loop (``_bland``) runs on a float64
   copy of the sign-normalized tableau, with a tolerance on every sign
   test and a hard pivot cap.  Its only output is a final basis.
2. **Exact certificate.**  That basis is settled in exact integer
   arithmetic (:mod:`jointfeas.linalg`): feasible when the solution of
   ``B x_B = b`` is nonnegative with every artificial at zero,
   infeasible when the solution of ``B^T y = c_B`` gives a Farkas
   vector.  No float value reaches a result; only the basis does.
3. **Exact fallback.**  When the guide stops early (pivot cap, no
   leaving row, an entry beyond float range), or its basis is singular
   or fails both exact checks, the same ``_bland`` loop runs from a
   cold start on an object tableau of ``Fraction`` values, with
   tolerance 0 and no cap, and its final basis goes to step 2.

On success the basic feasible solution is returned; on failure the dual
multipliers of the phase-1 optimum yield a Farkas vector u with
u.A >= 0 componentwise and u.b < 0, an independently checkable
certificate of emptiness.  Every result is read off a final basis by
step 2, so a guide that follows Bland's exact path gives the fallback's
solution, Farkas vector and pivot count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .linalg import echelon

__all__ = ["EqualityFeasibility", "solve_equality_feasibility"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Float guide: entries within _TOL of zero count as zero, ratios within
# _TOL of the minimum as ties; at most _PIVOT_CAP_PER_COLUMN pivots per
# tableau column before the exact loop takes over.
_TOL = 1e-9
_PIVOT_CAP_PER_COLUMN = 50


@dataclass(frozen=True)
class EqualityFeasibility:
    feasible: bool
    solution: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None
    pivots: int


def solve_equality_feasibility(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> EqualityFeasibility:
    """Feasibility of {x >= 0 : rows . x = rhs}, exactly.

    The Farkas vector is expressed against the rows as given (before the
    internal sign normalization).
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("row/rhs length mismatch")
    n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged constraint matrix")

    # Normalize to b >= 0, remembering the sign applied to each row.
    signs = [(-1 if b < 0 else 1) for b in rhs]
    if m:
        try:
            # Overflow to inf or nan only misguides; the exact checks catch it.
            with np.errstate(over="ignore", invalid="ignore"):
                guide = _float_guide(_tableau(rows, rhs, signs, float), n, m)
        except OverflowError:  # an entry beyond float range
            guide = None
        if guide is not None:
            basis, pivots = guide
            result = _certify(rows, rhs, signs, basis, pivots)
            if result is not None:
                return result
    return _exact_bland(rows, rhs, signs)


def _tableau(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], signs: list[int], dtype
) -> np.ndarray:
    """Sign-normalized phase-1 tableau [A | I | b] with the cost row appended.

    Every cell is filled from ``_ZERO``, ``_ONE`` and the inputs, so an
    object tableau holds only ``Fraction`` values.
    """
    m = len(rows)
    n = len(rows[0])
    tab = np.full((m + 1, n + m + 1), _ZERO, dtype)
    tab[:m, :n] = rows
    tab[:m, -1] = rhs
    tab[:m] *= np.array(signs)[:, None]
    tab[np.arange(m), n + np.arange(m)] = _ONE
    tab[m] = -tab[:m].sum(axis=0)
    tab[m, n : n + m] = _ZERO  # cost 1 minus the column sum 1
    return tab


def _float_guide(tab: np.ndarray, n: int, m: int) -> tuple[list[int], int] | None:
    """Bland's rule on the float tableau, with tolerance and pivot cap."""
    return _bland(tab, n, m, _TOL, _PIVOT_CAP_PER_COLUMN * (n + m))


def _bland(
    tab: np.ndarray, n: int, m: int, tol: float, cap: int | None
) -> tuple[list[int], int] | None:
    """Run Bland's rule on the tableau in place from the all-artificial basis.

    Entries within ``tol`` of zero count as zero and ratios within ``tol``
    of the minimum as ties.  Returns the final basis (column index per
    row) and the pivot count, or None when ``cap`` pivots are reached or
    no leaving row exists.
    """
    basis = np.arange(n, n + m)
    cost = tab[m, : n + m]
    rhs = tab[:m, -1]
    update = np.empty_like(tab)
    pivots = 0
    while True:
        entering = int(np.argmax(cost < -tol))
        if cost[entering] >= -tol:
            return basis.tolist(), pivots
        if cap is not None and pivots >= cap:
            return None
        column = tab[:m, entering]
        candidates = np.flatnonzero(column > tol)
        if candidates.size == 0:
            return None
        ratios = rhs[candidates] / column[candidates]
        ties = candidates[ratios <= ratios.min() + tol]
        leaving = int(ties[np.argmin(basis[ties])])

        prow = tab[leaving] / tab[leaving, entering]
        np.multiply.outer(tab[:, entering], prow, out=update)
        tab -= update
        tab[leaving] = prow
        basis[leaving] = entering
        pivots += 1


def _certify(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    signs: list[int],
    basis: list[int],
    pivots: int,
) -> EqualityFeasibility | None:
    """Settle a final Bland basis exactly, or None when it proves nothing.

    Row i of the sign-normalized system is scaled by the positive
    integer ``dens[i]`` to clear its denominators, so the scaled system
    has the same solutions and artificial column i becomes
    ``dens[i] * e_i``.
    """
    m = len(rows)
    n = len(rows[0])
    dens = [lcm(b.denominator, *(v.denominator for v in row)) for row, b in zip(rows, rhs)]
    scaled = [
        [s * v.numerator * (d // v.denominator) for v in (*row, b)]
        for row, b, s, d in zip(rows, rhs, signs, dens)
    ]

    def entry(i: int, j: int) -> int:
        if j < n:
            return scaled[i][j]
        return dens[i] if j - n == i else 0

    # Primal: B x_B = b.
    mat, piv, d = echelon(
        [[entry(i, j) for j in basis] + [scaled[i][n]] for i in range(m)], pivot_cols=m
    )
    if len(piv) != m:  # singular basis
        return None
    x_basic = [Fraction(mat[k][m], d) for k in range(m)]
    if all(v >= 0 for v in x_basic) and all(
        v == 0 for j, v in zip(basis, x_basic) if j >= n
    ):
        x = [_ZERO] * n
        for j, v in zip(basis, x_basic):
            if j < n:
                x[j] = v
        return EqualityFeasibility(True, tuple(x), None, pivots)

    # Dual: B^T y' = c_B in the scaled rows; the phase-1 multipliers of
    # the unscaled rows are y_i = dens[i] * y'_i, with y' = w / |d|.
    mat, piv, d = echelon(
        [[entry(i, j) for i in range(m)] + [int(j >= n)] for j in basis], pivot_cols=m
    )
    if len(piv) != m:
        return None
    sign = 1 if d > 0 else -1
    w = [sign * mat[i][m] for i in range(m)]
    # u = -y (then unsigned per row) is a Farkas vector exactly when
    # y'.A'_j <= 0 on every structural column and y'.b' > 0.
    for j in range(n):
        if sum(wi * row[j] for wi, row in zip(w, scaled) if wi) > 0:
            return None
    if sum(wi * row[n] for wi, row in zip(w, scaled)) <= 0:
        return None
    farkas = tuple(
        Fraction(-s * dn * wi, abs(d)) for s, dn, wi in zip(signs, dens, w)
    )
    return EqualityFeasibility(False, None, farkas, pivots)


def _exact_bland(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], signs: list[int]
) -> EqualityFeasibility:
    """Bland's rule on a ``Fraction`` tableau from the all-artificial basis."""
    m = len(rows)
    if m == 0:
        return EqualityFeasibility(True, (), None, 0)
    n = len(rows[0])
    final = _bland(_tableau(rows, rhs, signs, object), n, m, 0, None)
    result = None if final is None else _certify(rows, rhs, signs, *final)
    if result is None:
        # An exact phase-1 optimum always exists and certifies.
        raise AssertionError("exact Bland loop ended without a certified basis")
    return result
