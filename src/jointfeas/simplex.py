"""Phase-1 simplex for equality-form feasibility, guided in floats, decided exactly.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables with Bland's smallest-index rule (finite, no
cycling).  The decision takes three steps:

1. **Float guide.**  The Bland pivots run on a float64 copy of the
   sign-normalized tableau, with a tolerance on every sign test and a
   hard pivot cap.  Its only output is a final basis.
2. **Exact certificate.**  That basis is settled in exact integer
   arithmetic (:mod:`jointfeas.linalg`): feasible when the solution of
   ``B x_B = b`` is nonnegative with every artificial at zero,
   infeasible when the solution of ``B^T y = c_B`` gives a Farkas
   vector.  No float value reaches a result; only the basis does.
3. **Exact fallback.**  When the guide stops early (pivot cap, no
   leaving row, an entry beyond float range), or its basis is singular
   or fails both exact checks, the same Bland loop runs on a dense
   ``Fraction`` tableau from a cold start.

On success the basic feasible solution is returned; on failure the dual
multipliers of the phase-1 optimum yield a Farkas vector u with
u.A >= 0 componentwise and u.b < 0, an independently checkable
certificate of emptiness.  Either way the result is what the exact loop
returns from the same final basis, so a guide that follows Bland's path
gives the exact loop's solution, Farkas vector and pivot count.
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
                guide = _float_guide(_float_tableau(rows, rhs, signs), n, m)
        except OverflowError:  # an entry beyond float range
            guide = None
        if guide is not None:
            basis, pivots = guide
            result = _certify(rows, rhs, signs, basis, pivots)
            if result is not None:
                return result
    return _exact_bland(rows, rhs, signs)


def _float_tableau(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], signs: list[int]
) -> np.ndarray:
    """Sign-normalized phase-1 tableau [A | I | b] with the cost row appended."""
    m = len(rows)
    n = len(rows[0])
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = rows
    tab[:m, -1] = rhs
    tab[:m] *= np.array(signs, dtype=float)[:, None]
    tab[np.arange(m), n + np.arange(m)] = 1.0
    tab[m] = -tab[:m].sum(axis=0)
    tab[m, n : n + m] += 1.0  # artificial columns carry cost 1
    return tab


def _float_guide(tab: np.ndarray, n: int, m: int) -> tuple[list[int], int] | None:
    """Run Bland's rule on the float tableau in place.

    Returns the final basis (column index per row) and the pivot count,
    or None when the pivot cap is hit or no leaving row exists.
    """
    basis = np.arange(n, n + m)
    cost = tab[m, : n + m]
    rhs = tab[:m, -1]
    update = np.empty_like(tab)
    cap = _PIVOT_CAP_PER_COLUMN * (n + m)
    pivots = 0
    while True:
        entering = int(np.argmax(cost < -_TOL))
        if cost[entering] >= -_TOL:
            return basis.tolist(), pivots
        if pivots >= cap:
            return None
        column = tab[:m, entering]
        candidates = np.flatnonzero(column > _TOL)
        if candidates.size == 0:
            return None
        ratios = rhs[candidates] / column[candidates]
        ties = candidates[ratios <= ratios.min() + _TOL]
        leaving = int(ties[np.argmin(basis[ties])])

        prow = tab[leaving]
        prow /= prow[entering]
        factors = tab[:, entering].copy()
        factors[leaving] = 0.0
        np.multiply.outer(factors, prow, out=update)
        tab -= update
        tab[:, entering] = 0.0
        tab[leaving, entering] = 1.0
        basis[leaving] = entering
        pivots += 1


def _certify(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    signs: list[int],
    basis: list[int],
    pivots: int,
) -> EqualityFeasibility | None:
    """Settle the guide's final basis exactly, or None when it proves nothing.

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
    """Bland's rule on a dense ``Fraction`` tableau from the all-artificial basis."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    tab = [
        [s * v for v in row] + [_ONE if i == j else _ZERO for j in range(m)] + [s * b]
        for i, (row, b, s) in enumerate(zip(rows, rhs, signs))
    ]
    width = n + m + 1

    # Reduced-cost row for min(sum of artificials): z_j - c_j bookkeeping
    # collapses to cost[j] = -sum_i tab[i][j] for structural columns.
    cost = [_ZERO] * width
    for j in range(width):
        acc = _ZERO
        for i in range(m):
            acc += tab[i][j]
        cost[j] = -acc
    for j in range(n, n + m):
        cost[j] += _ONE  # artificial columns carry cost 1

    basis = list(range(n, n + m))
    pivots = 0

    while True:
        entering = -1
        for j in range(n + m):
            if cost[j] < 0:
                entering = j
                break
        if entering < 0:
            break

        leaving = -1
        best_ratio: Fraction | None = None
        for i in range(m):
            coeff = tab[i][entering]
            if coeff > 0:
                ratio = tab[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            # Phase-1 objective is bounded below by 0; this cannot happen.
            raise AssertionError("unbounded phase-1 objective")

        pivot = tab[leaving][entering]
        prow = tab[leaving]
        if pivot != 1:
            inv = 1 / pivot
            for j in range(width):
                prow[j] *= inv
        for i in range(m):
            if i != leaving:
                factor = tab[i][entering]
                if factor != 0:
                    row = tab[i]
                    for j in range(width):
                        row[j] -= factor * prow[j]
        factor = cost[entering]
        if factor != 0:
            for j in range(width):
                cost[j] -= factor * prow[j]
        basis[leaving] = entering
        pivots += 1

    objective = _ZERO
    for i in range(m):
        if basis[i] >= n:
            objective += tab[i][-1]

    if objective == 0:
        x = [_ZERO] * n
        for i in range(m):
            if basis[i] < n:
                x[basis[i]] = tab[i][-1]
        return EqualityFeasibility(True, tuple(x), None, pivots)

    # Dual multipliers: the reduced cost of artificial i is 1 - y_i, so
    # y_i = 1 - cost[n+i].  Then y.(sign-normalized A) <= 0 on structural
    # columns and y.(normalized b) = objective > 0; take u = -y and undo
    # the sign normalization per row.
    farkas = tuple(-(_ONE - cost[n + i]) * signs[i] for i in range(m))
    return EqualityFeasibility(False, None, farkas, pivots)
