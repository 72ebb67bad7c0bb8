"""Phase-1 simplex for equality-form feasibility, guided in floats, decided exactly.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables with Bland's smallest-index rule (finite, no
cycling).  The rows arrive as integers with one positive denominator
per row (``A[i] = matrix[i] / dens[i]``), as :mod:`jointfeas.feasibility`
builds them; rational rows are put over their least common denominators
once, on entry.  The decision takes three steps:

1. **Float guide.**  The Bland loop (``_bland``) runs on a float64
   copy of the sign-normalized tableau, with a tolerance on every sign
   test and a hard pivot cap.  Each cell is ``matrix[i, j] / dens[i]``
   correctly rounded: float64 division when both are below 2**53 in
   magnitude, Python int division otherwise, so the tableau equals the
   one filled with ``float(Fraction)`` bit for bit.  Its only output is
   a final basis.
2. **Exact certificate.**  That basis is settled in exact integer
   arithmetic (:mod:`jointfeas.linalg`) on the integer rows, with only
   the right-hand side denominators folded in: feasible when the
   solution of ``B x_B = b`` is nonnegative with every artificial at
   zero, infeasible when the solution of ``B^T y = c_B`` gives a Farkas
   vector, whose column test is one vectorized product with the matrix.
   The guide's phase-1 objective picks which check runs first (the
   Farkas one when it is positive); no basis passes both, so the order
   changes the cost, never the result.  No float value reaches a
   result; only the basis and that order do.
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

_INT64_MAX = (1 << 63) - 1
# Integers below this in magnitude are exact doubles.
_EXACT_DOUBLE = 1 << 53


@dataclass(frozen=True)
class EqualityFeasibility:
    feasible: bool
    solution: tuple[Fraction, ...] | None
    farkas: tuple[Fraction, ...] | None
    pivots: int


def solve_equality_feasibility(
    rows: Sequence[Sequence], rhs: Sequence[Fraction], dens: Sequence[int] | None = None
) -> EqualityFeasibility:
    """Feasibility of {x >= 0 : rows . x = rhs}, exactly.

    ``rows`` holds rationals, or, when ``dens`` is given, integers with
    row i standing for ``rows[i] / dens[i]`` (each den a positive int).
    The Farkas vector is expressed against the rows as given (before the
    internal sign normalization).
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if m == 0:
        return EqualityFeasibility(True, (), None, 0)
    if dens is None:
        matrix, dens = _integral_rows(rows)
    else:
        matrix = np.asarray(rows)
        if matrix.ndim != 2 or len(dens) != m:
            raise ValueError("integer rows need a 2-d matrix and one denominator per row")
    n = matrix.shape[1]

    # Normalize to b >= 0, remembering the sign applied to each row.
    signs = [(-1 if b < 0 else 1) for b in rhs]
    try:
        # Overflow to inf or nan only misguides; the exact checks catch it.
        with np.errstate(over="ignore", invalid="ignore"):
            tab = _tableau(matrix, dens, rhs, signs, float)
            guide = _float_guide(tab, n, m)
    except OverflowError:  # an entry beyond float range
        guide = None
    if guide is not None:
        # tab[m, -1] is minus the guide's phase-1 objective: a positive
        # objective points at the Farkas check, so that one runs first.
        result = _certify(matrix, dens, rhs, signs, *guide, dual_first=bool(tab[m, -1] < -_TOL))
        if result is not None:
            return result
    return _exact_bland(matrix, dens, rhs, signs)


def _integral_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[np.ndarray, list[int]]:
    """Each rational row over its least common denominator: ``(matrix, dens)``.

    The matrix is int64 when every numerator fits, else Python ints.
    """
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("ragged constraint matrix")
    dens = [lcm(*(v.denominator for v in row)) for row in rows]
    values = [[v.numerator * (d // v.denominator) for v in row] for row, d in zip(rows, dens)]
    fits = all(abs(v) <= _INT64_MAX for row in values for v in row)
    return np.array(values, np.int64 if fits else object), dens


def _quotients(matrix: np.ndarray, dens: Sequence[int], dtype) -> np.ndarray:
    """``matrix[i] / dens[i]`` as ``Fraction`` values or as correctly rounded floats.

    float64 division is correctly rounded when both operands are exact
    doubles (below 2**53 in magnitude); otherwise Python's int true
    division is, so either way each cell equals ``float(Fraction)``.
    """
    if dtype is object:
        return np.array(
            [[Fraction(v, d) for v in row] for row, d in zip(matrix.tolist(), dens)], object
        ).reshape(matrix.shape)
    if max(dens) < _EXACT_DOUBLE and np.abs(matrix).max(initial=0) < _EXACT_DOUBLE:
        return matrix.astype(float) / np.array(dens, float)[:, None]
    return (matrix.astype(object) / np.array(dens, object)[:, None]).astype(float)


def _tableau(
    matrix: np.ndarray, dens: Sequence[int], rhs: Sequence[Fraction], signs: list[int], dtype
) -> np.ndarray:
    """Sign-normalized phase-1 tableau [A | I | b] with the cost row appended.

    Every cell is filled from ``_ZERO``, ``_ONE`` and the inputs, so an
    object tableau holds only ``Fraction`` values.
    """
    m, n = matrix.shape
    tab = np.full((m + 1, n + m + 1), _ZERO, dtype)
    tab[:m, :n] = _quotients(matrix, dens, dtype)
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
    exact = tab.dtype == object
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
        if exact:
            # Exact cells change only where both the entering column and
            # the pivot row are nonzero; skip the Fraction work elsewhere.
            rows = np.flatnonzero(tab[:, entering])
            cols = np.flatnonzero(prow)
            tab[np.ix_(rows, cols)] -= np.multiply.outer(tab[rows, entering], prow[cols])
        else:
            np.multiply.outer(tab[:, entering], prow, out=update)
            tab -= update
        tab[leaving] = prow
        basis[leaving] = entering
        pivots += 1


def _certify(
    matrix: np.ndarray,
    dens: Sequence[int],
    rhs: Sequence[Fraction],
    signs: list[int],
    basis: list[int],
    pivots: int,
    *,
    dual_first: bool,
) -> EqualityFeasibility | None:
    """Settle a final Bland basis exactly, or None when it proves nothing.

    Row i of the sign-normalized system is scaled by the positive
    integer ``scale[i]``, the lcm of ``dens[i]`` and the denominator of
    ``rhs[i]``, so the scaled system is integral, has the same solutions,
    and artificial column i becomes ``scale[i] * e_i``.

    Two exact checks can settle the basis: the primal solve proves
    feasibility, the dual (Farkas) solve proves emptiness.  By the
    Farkas alternative no basis passes both, so ``dual_first`` (the
    caller's guess that the phase-1 optimum is positive) changes which
    one runs first, never the result.
    """
    m, n = matrix.shape
    scale = [lcm(d, b.denominator) for d, b in zip(dens, rhs)]
    factor = [s * (l // d) for s, l, d in zip(signs, scale, dens)]
    b = [s * v.numerator * (l // v.denominator) for s, v, l in zip(signs, rhs, scale)]
    picked = matrix[:, [j if j < n else 0 for j in basis]].tolist()
    # basic[i][k]: the scaled entry of row i in basis column basis[k].
    basic = [
        [f * v if j < n else (l if j - n == i else 0) for v, j in zip(row, basis)]
        for i, (row, f, l) in enumerate(zip(picked, factor, scale))
    ]

    def primal() -> EqualityFeasibility | None:
        # B x_B = b.
        mat, piv, d = echelon([row + [bi] for row, bi in zip(basic, b)], pivot_cols=m)
        if len(piv) != m:  # singular basis
            return None
        x_basic = [Fraction(mat[k][m], d) for k in range(m)]
        if any(v < 0 for v in x_basic) or any(v != 0 for j, v in zip(basis, x_basic) if j >= n):
            return None
        x = [_ZERO] * n
        for j, v in zip(basis, x_basic):
            if j < n:
                x[j] = v
        return EqualityFeasibility(True, tuple(x), None, pivots)

    def dual() -> EqualityFeasibility | None:
        # B^T y' = c_B in the scaled rows; the phase-1 multipliers of
        # the unscaled rows are y_i = scale[i] * y'_i, with y' = w / |d|.
        mat, piv, d = echelon(
            [[basic[i][k] for i in range(m)] + [int(j >= n)] for k, j in enumerate(basis)],
            pivot_cols=m,
        )
        if len(piv) != m:
            return None
        sign = 1 if d > 0 else -1
        w = [sign * mat[i][m] for i in range(m)]
        # u = -y (then unsigned per row) is a Farkas vector exactly when
        # y'.A'_j <= 0 on every structural column and y'.b' > 0.
        if n and (np.array([wi * f for wi, f in zip(w, factor)], object) @ matrix > 0).any():
            return None
        if sum(wi * bi for wi, bi in zip(w, b)) <= 0:
            return None
        farkas = tuple(
            Fraction(-s * l * wi, abs(d)) for s, l, wi in zip(signs, scale, w)
        )
        return EqualityFeasibility(False, None, farkas, pivots)

    for check in (dual, primal) if dual_first else (primal, dual):
        result = check()
        if result is not None:
            return result
    return None


def _exact_bland(
    matrix: np.ndarray, dens: Sequence[int], rhs: Sequence[Fraction], signs: list[int]
) -> EqualityFeasibility:
    """Bland's rule on a ``Fraction`` tableau from the all-artificial basis."""
    m, n = matrix.shape
    tab = _tableau(matrix, dens, rhs, signs, object)
    final = _bland(tab, n, m, 0, None)
    result = None
    if final is not None:
        result = _certify(matrix, dens, rhs, signs, *final, dual_first=tab[m, -1] < 0)
    if result is None:
        # An exact phase-1 optimum always exists and certifies.
        raise AssertionError("exact Bland loop ended without a certified basis")
    return result
