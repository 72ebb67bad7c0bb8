"""Phase-1 simplex for equality-form feasibility, decided exactly.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables with Bland's smallest-index rule (finite, no
cycling).  The rows arrive as integers over one positive denominator
(``A = matrix / den``), as :mod:`jointfeas.feasibility` builds them.

The exact loop (``_integer_bland``) runs Bland's rule on a fraction-free
integer tableau (Edmonds, J. Res. NBS 71B, 1967; Bareiss, Math. Comp.
22, 1968).  Every row is scaled by D = den and every variable by L, the
lcm of the right-hand side denominators, so the sign-normalized tableau
is the integer matrix ``[D A | I | L D b]`` with cost row minus
the sum of the rows (0 on the artificial columns).  Both scalings are
uniform, so ratios, ties and the signs of the reduced costs, and with
them every choice of Bland's rule, are those of the rational tableau.
Each pivot is one :func:`jointfeas.linalg.pivot` (whose docstring
gives the exactness argument), so the tableau stays d times the
rational one, d being the determinant of the basis.  Every result is
read off a final tableau by one of two readers, behind explicit checks:
``_solution`` reads x_B = ``N[:m, -1] / (d L)`` off the value column,
keeping its positive structural values by column, and ``_farkas`` the
Farkas vector off the cost row's artificial entries.  A system is
decided on one of three paths:

1. **int64, when proven safe.**  Every entry of every tableau on the way
   is an m x m minor of the scaled block ``[D A | I | L D b]`` (Cramer's
   rule), or in the cost row a sum of at most m + 1 of them, so by
   Hadamard's inequality each is at most E = (m + 1) times the product
   of the m largest column 2-norms.  When E < 2**31 every ``p N - f r``
   fits int64 and the whole loop runs in int64 with no runtime check.
   Row signs change no column norm, and every column but the last is
   the rows', so E is decided from exact squared norms kept per row
   matrix (:class:`_Template`) and the squared norm of the target's b
   column, before any tableau is allocated.
2. **Float guide and exact certificate**, above that bound.  The guide
   (``_float_guide``) runs on a float64 copy of the rational tableau,
   with a tolerance on every sign test and a hard pivot cap.  It prices
   by Dantzig's rule alone (the most negative reduced cost enters; ratio
   ties go to the largest pivot element), which takes far fewer pivots
   than Bland's rule on large moment LPs.  Dantzig's rule can cycle;
   the pivot cap bounds the guide, and past it the exact loop, which
   cannot cycle, decides.  Each cell is ``matrix[i, j] / den``
   correctly rounded: float64 division when both are below 2**53 in
   magnitude, Python int division otherwise, so the tableau equals the
   one filled with ``float(Fraction)`` bit for bit.  Its only output is
   a final basis B, which ``_certify`` solves exactly in the integer
   tableau's scaling: ``B x = b`` gives the final value column for
   ``_solution``, ``B^T w = c_B`` the final cost row for ``_farkas``.
   Both reduce to one square block of the structural basis columns,
   solved by p-adic lifting (:func:`jointfeas.linalg.lifted_solve`),
   which checks its result exactly; a block singular modulo the lifting
   prime goes to Bareiss elimination instead.  A nonsingular basis
   fixes the solution, so either solver gives the same result.
   The guide's phase-1 objective picks which solve runs first (the dual
   one when it is positive); no basis passes both readers, so the order
   changes the cost, never the result.  No float value reaches a result;
   only the basis and that order do.
3. **Python-int fallback.**  When the guide stops early (pivot cap, no
   leaving row, an entry beyond float range), or its basis is singular
   or both readers refuse it, the exact loop runs from a cold start on
   Python ints (an object tableau).

Whatever depends on the rows alone is built once per row matrix: the
check of its dtype, its peak, the squared column norms of ``[D A | I]``
and, once a target passes the int64 bound, the int64 block
``[D A | I | 0]`` with its cost row.  A read-only matrix that owns its
data keeps that state for as long as it lives (:func:`_template`); any
other matrix gets it built afresh on every call.  A target then pays
only for its own column: the bound test, a copy of the block with the
rows of negative targets negated (and the cost row adjusted), and its
b column.

On success the basic feasible solution is returned, sparse: its
positive entries as ``{column: value}`` in column order, at most m of
them.  On failure the dual multipliers of the phase-1 optimum yield a
Farkas vector u with u.A >= 0 componentwise and u.b < 0, an
independently checkable certificate of emptiness.  The basis determines
both.  The guide may end on another optimal basis than the exact
loop's, so a guided result may hold another solution or Farkas vector,
and another pivot count, than the exact loop would give; its verdict is
the same, and both readers check it exactly.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Sequence

import numpy as np

from .linalg import echelon, integers, lifted_solve, peak, pivot, product

__all__ = ["EqualityFeasibility", "solve_equality_feasibility"]

# Float guide: entries within _TOL of zero count as zero, ratios within
# _TOL of the minimum as ties; at most _PIVOT_CAP_PER_COLUMN pivots per
# tableau column before the exact loop takes over.
_TOL = 1e-9
_PIVOT_CAP_PER_COLUMN = 50

_INT64_MAX = (1 << 63) - 1
# Integers below this in magnitude are exact doubles.
_EXACT_DOUBLE = 1 << 53
# The int64 loop runs only when the entry bound E is below this: then
# |p N - f r| <= 2 E**2 < 2**63.
_INT64_SAFE = 1 << 31


@dataclass(frozen=True)
class EqualityFeasibility:
    feasible: bool
    solution: dict[int, Fraction] | None  # the positive entries of x, by column
    farkas: tuple[Fraction, ...] | None
    pivots: int


def solve_equality_feasibility(rows: np.ndarray, rhs: Sequence[Fraction], den: int) -> EqualityFeasibility:
    """Feasibility of {x >= 0 : (rows / den) . x = rhs}, exactly.

    ``rows`` is a 2-d array of integers (any int dtype, or Python ints in
    an object array), ``den`` a positive int and ``rhs`` holds ints or
    Fractions; anything else raises ``ValueError``.  The solution holds
    the positive entries of x by column; the Farkas vector is expressed
    against the rows as given (before the internal sign normalization).
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("row/rhs length mismatch")
    if not all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in rhs):
        raise ValueError(f"right-hand side entries must be ints or Fractions, got {list(rhs)!r}")
    if isinstance(den, bool) or not isinstance(den, int) or den <= 0:
        raise ValueError(f"the denominator must be a positive int, got {den!r}")
    if m == 0:
        return EqualityFeasibility(True, {}, None, 0)
    matrix = np.asarray(rows)
    if matrix.ndim != 2:
        raise ValueError("integer rows need a 2-d matrix")
    template = _template(matrix)
    if template.rows is not None:
        matrix = template.rows
    n = matrix.shape[1]

    # Normalize to b >= 0, remembering the sign applied to each row.
    signs, b, scale = _scales(den, rhs)
    tab = template.tableau(matrix, signs, b)
    if tab is not None:
        result = _exact_loop(tab, n, m, signs, scale)
        if result is not None:
            return result
    guide = _guided(matrix, template.top, den, rhs, signs)
    result = None if guide is None else _certify(matrix, template.top, signs, b, scale, *guide)
    if result is None:
        result = _exact_loop(_integer_tableau(matrix, signs, b, object), n, m, signs, scale)
    if result is None:
        # An exact phase-1 optimum always exists and reads off.
        raise AssertionError("exact Bland loop ended without a result")
    return result


# ---------------------------------------------------------------------------
# Per row matrix: what every target's solve reads
# ---------------------------------------------------------------------------


class _Template:
    """What the solve reads of one row matrix, whatever the target.

    ``rows`` is an int64 copy of unsigned rows that fit int64 (None when
    the rows are read as given), ``top`` their :func:`peak`.  ``norms``
    holds, of the squared 2-norms of the columns of ``[D A | I]``, the
    smallest of the m largest, their product and the product of the
    other m - 1; it is None for rows that are not int64, or whose
    squares do not fit int64 (then E >= 2**31 for every target).
    ``block`` is :func:`_block`'s int64 ``[D A | I | 0]`` and cost row,
    built for the first target the bound admits.
    """

    __slots__ = ("rows", "top", "norms", "block")

    def __init__(self, matrix: np.ndarray) -> None:
        kind = matrix.dtype.kind
        if kind not in "iuO" or kind == "O" and not all(type(v) is int for v in matrix.flat):
            raise ValueError(f"integer rows must hold ints, got a matrix of dtype {matrix.dtype}")
        self.rows = None
        if kind == "u" and matrix.max(initial=0) <= _INT64_MAX:
            # Unsigned rows that fit int64 take the int64 path like signed ones.
            matrix = self.rows = matrix.astype(np.int64)
        self.top = peak(matrix)
        self.norms = None
        self.block = None
        m = len(matrix)
        # Squares past int64 put E past 2**31: E**2 >= (m + 1)**2 * top**2 > 2**63.
        if matrix.dtype.kind == "i" and m * self.top**2 <= _INT64_MAX:
            squares = np.sort(np.einsum("ij,ij->j", matrix, matrix))[-m:]  # each at most m * top**2
            largest = sorted(squares.tolist() + [1] * m)[-m:]  # the m artificial columns have norm 1
            full = prod(largest)
            self.norms = largest[0], full, full // largest[0]

    def tableau(self, matrix: np.ndarray, signs: Sequence[int], b: Sequence[int]) -> np.ndarray | None:
        """The int64 tableau for one target when its entry bound E is below 2**31, else None.

        ``matrix`` holds the rows this template was built from.  E is
        (m + 1) times H, the product of the m largest column 2-norms of
        ``[D A | I | L D b]``.  Every column but the last is the rows', so
        H**2 is the kept product, with its smallest factor traded for the
        b column's squared norm when that is larger.  Both sides are
        exact integers, so the test is exact, and it runs before any
        tableau is allocated.  E is at least (m + 1) times every entry,
        the target's too, so an admitted target fills and negates in
        int64.
        """
        if self.norms is None:
            return None
        m = len(b)
        low, full, rest = self.norms
        column = sum([v * v for v in b])
        if (m + 1) ** 2 * (rest * column if column > low else full) >= _INT64_SAFE**2:
            return None
        if self.block is None:
            self.block = _block(matrix)
        tab = self.block.copy()
        n = matrix.shape[1]
        cost = tab[m, :n]
        for i, s in enumerate(signs):
            if s < 0:  # the cost row is minus the sum of the signed rows
                row = tab[i, :n]
                cost += row
                cost += row
                np.negative(row, out=row)
        tab[:m, -1] = b
        tab[m, -1] = -sum(b)
        return tab


def _block(matrix: np.ndarray) -> np.ndarray:
    """The int64 tableau of a target whose rows all keep their sign, but for its b column.

    That is ``[D A | I | 0]``, with the cost row minus the sum of the
    rows (0 on I).
    """
    m, n = matrix.shape
    block = np.zeros((m + 1, n + m + 1), np.int64)
    block[:m, :n] = matrix
    block[np.arange(m), n + np.arange(m)] = 1
    block[m, :n] = -matrix.sum(axis=0)
    return block


# Per-matrix state of read-only row matrices, by id.  Each entry is
# dropped when its matrix is collected, so whoever holds the matrix (the
# row cache of :mod:`jointfeas.feasibility`) sets its lifetime.
_templates: dict[int, _Template] = {}


def _template(matrix: np.ndarray) -> _Template:
    """The matrix's :class:`_Template`: kept while a read-only matrix lives, else built afresh.

    Only a read-only array that owns its data is known not to change
    between calls: a read-only view may still change through its base.
    No entry holds a reference to its matrix, or the matrix would never
    be collected.
    """
    if matrix.flags.writeable or not matrix.flags.owndata:
        return _Template(matrix)
    key = id(matrix)
    template = _templates.get(key)
    if template is None:
        template = _templates[key] = _Template(matrix)
        weakref.finalize(matrix, _templates.pop, key, None)
    return template


# ---------------------------------------------------------------------------
# The exact loop: Bland's rule on a fraction-free integer tableau
# ---------------------------------------------------------------------------


def _scales(den: int, rhs: Sequence[Fraction]) -> tuple[list[int], list[int], int]:
    """``(signs, b, L)``: the row signs, the integer tableau's right-hand side and variable scale.

    Row i is negated where its target is negative, so that b >= 0.
    Sign-normalized row i times D = den is ``signs[i] * matrix[i]``;
    with every variable scaled by L, the lcm of the right-hand side
    denominators, its right-hand side is the integer ``b[i]``.
    """
    ratios = [v.as_integer_ratio() for v in rhs]
    scale = lcm(*[q for _, q in ratios])
    unit = scale * den
    return [-1 if p < 0 else 1 for p, _ in ratios], [abs(p) * (unit // q) for p, q in ratios], scale


def _integer_tableau(matrix: np.ndarray, signs: Sequence[int], b: Sequence[int], dtype) -> np.ndarray:
    """``[D A | I | L D b]`` with the cost row (minus the row sum, 0 on I) appended."""
    m, n = matrix.shape
    tab = np.zeros((m + 1, n + m + 1), dtype)
    tab[:m, :n] = matrix * np.array(signs, dtype)[:, None]
    tab[:m, -1] = b
    tab[np.arange(m), n + np.arange(m)] = 1
    tab[m] = -tab[:m].sum(axis=0)
    tab[m, n : n + m] = 0  # cost 1 minus the column sum 1
    return tab


def _exact_loop(
    tab: np.ndarray, n: int, m: int, signs: list[int], scale: int
) -> EqualityFeasibility | None:
    """The exact loop on an integer tableau, and the result read off its end."""
    final = _integer_bland(tab, n, m)
    if final is None:
        return None
    basis, pivots, d = final
    values = tab[:m, -1].tolist()
    return _farkas(tab[m].tolist(), n, d, signs, pivots) or _solution(values, basis, n, d, scale, pivots)


def _integer_bland(tab: np.ndarray, n: int, m: int) -> tuple[list[int], int, int] | None:
    """Bland's rule on the fraction-free tableau, in place, from the all-artificial basis.

    The ratio test compares by integer cross-multiplication and breaks
    ties to the smallest basis index.  Returns the final basis (column
    index per row), the pivot count and the common denominator d, or
    None when no leaving row exists (never, on an exact phase-1 tableau).
    """
    basis = list(range(n, n + m))
    cost = tab[m, : n + m]
    d = 1
    pivots = 0
    while True:
        entering = int((cost < 0).argmax())
        if cost[entering] >= 0:
            return basis, pivots, d
        column = tab[:m, entering].tolist()
        rhs = tab[:m, -1].tolist()
        leaving = -1
        for i, a in enumerate(column):
            if a <= 0:
                continue
            if leaving < 0:
                leaving = i
                continue
            # rhs[i] / a against the best ratio so far
            gap = rhs[i] * column[leaving] - rhs[leaving] * a
            if gap < 0 or (gap == 0 and basis[i] < basis[leaving]):
                leaving = i
        if leaving < 0:
            return None

        d = pivot(tab, leaving, entering, d)
        basis[leaving] = entering
        pivots += 1


def _farkas(cost: list[int], n: int, d: int, signs: list[int], pivots: int) -> EqualityFeasibility | None:
    """The Farkas vector a final cost row proves, or None.

    The two readers take the integer tableau's scaling (d > 0, L), and
    test explicitly, not by ``assert``, so they hold under ``python -O``.
    ``cost`` is ``-D (w * signs) . A | d - w | -L D (w * signs) . b`` for
    the phase-1 multipliers y = w / d.  Nonnegative structural costs and
    ``cost[-1] < 0`` make ``u = -signs * y`` a Farkas vector for the rows
    as given: u.A >= 0 and u.b < 0.  The artificial costs take no part in
    that proof, so they may be negative.
    """
    if cost[-1] >= 0 or any(c < 0 for c in cost[:n]):
        return None
    farkas = tuple(Fraction(-s * (d - c), d) for s, c in zip(signs, cost[n:-1]))
    return EqualityFeasibility(False, None, farkas, pivots)


def _solution(
    values: list[int], basis: list[int], n: int, d: int, scale: int, pivots: int
) -> EqualityFeasibility | None:
    """x_B = values / (d L) off a final value column; None unless all >= 0, basic artificials 0.

    The solution keeps the positive structural values, by column in
    column order.
    """
    if any(v < 0 for v in values) or any(v for j, v in zip(basis, values) if j >= n):
        return None
    x = {j: Fraction(v, d * scale) for j, v in sorted(zip(basis, values)) if v and j < n}
    return EqualityFeasibility(True, x, None, pivots)


# ---------------------------------------------------------------------------
# Above the int64 bound: a float guide, settled exactly
# ---------------------------------------------------------------------------


def _guided(
    matrix: np.ndarray, top: int, den: int, rhs: Sequence[Fraction], signs: list[int]
) -> tuple[list[int], int, bool] | None:
    """The float guide's proposal ``(basis, pivots, dual_first)``, or None when it stops early.

    ``top`` is ``peak(matrix)``, known to the caller.
    """
    m, n = matrix.shape
    try:
        # Overflow to inf or nan only misguides; the exact checks catch it.
        with np.errstate(over="ignore", invalid="ignore"):
            tab = _tableau(matrix, top, den, rhs, signs)
            guide = _float_guide(tab, n, m)
    except OverflowError:  # an entry beyond float range
        return None
    if guide is None:
        return None
    # tab[m, -1] is minus the guide's phase-1 objective: a positive
    # objective points at the Farkas check, so that one runs first.
    return *guide, bool(tab[m, -1] < -_TOL)


def _quotients(matrix: np.ndarray, top: int, den: int) -> np.ndarray:
    """``matrix / den`` as correctly rounded floats; ``top`` is ``peak(matrix)``.

    float64 division is correctly rounded when both operands are exact
    doubles (below 2**53 in magnitude); otherwise Python's int true
    division is, so either way each cell equals ``float(Fraction)``.
    """
    if den < _EXACT_DOUBLE and top < _EXACT_DOUBLE:
        return matrix.astype(float) / den
    return (matrix.astype(object) / den).astype(float)


def _tableau(
    matrix: np.ndarray, top: int, den: int, rhs: Sequence[Fraction], signs: list[int]
) -> np.ndarray:
    """Sign-normalized float phase-1 tableau [A | I | b] with the cost row appended."""
    m, n = matrix.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = _quotients(matrix, top, den)
    tab[:m, -1] = rhs
    tab[:m] *= np.array(signs)[:, None]
    tab[np.arange(m), n + np.arange(m)] = 1.0
    tab[m] = -tab[:m].sum(axis=0)
    tab[m, n : n + m] = 0.0  # cost 1 minus the column sum 1
    return tab


def _float_guide(tab: np.ndarray, n: int, m: int) -> tuple[list[int], int] | None:
    """Dantzig's rule on the float tableau, in place, from the all-artificial basis.

    The entering column has the most negative reduced cost, and ratio-test
    ties go to the largest pivot element.  Entries within ``_TOL`` of zero
    count as zero and ratios within ``_TOL`` of the minimum as ties.
    Returns the final basis (column index per row) and the pivot count,
    or None when the pivot cap is reached or no leaving row exists.
    """
    cap = _PIVOT_CAP_PER_COLUMN * (n + m)
    basis = np.arange(n, n + m)
    cost = tab[m, : n + m]
    rhs = tab[:m, -1]
    update = np.empty_like(tab)
    pivots = 0
    while True:
        entering = int(np.argmin(cost))
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
        leaving = int(ties[np.argmax(column[ties])])

        prow = tab[leaving] / tab[leaving, entering]
        np.multiply.outer(tab[:, entering], prow, out=update)
        tab -= update
        tab[leaving] = prow
        basis[leaving] = entering
        pivots += 1


def _certify(
    matrix: np.ndarray,
    top: int,
    signs: list[int],
    b: Sequence[int],
    scale: int,
    basis: list[int],
    pivots: int,
    dual_first: bool,
) -> EqualityFeasibility | None:
    """Settle the guide's final basis exactly, or None when it proves nothing.

    ``top`` is ``peak(matrix)``, known to the caller.

    B is the basis block of the exact loop's integer tableau
    (``signs[i] * matrix[i]`` on a structural column, e_i on an
    artificial one).  ``B x = b`` gives the final value column for
    ``_solution``; ``B^T y = c_B`` gives the phase-1 multipliers y and
    the final cost row ``-(w * signs) . matrix | q - w | -w . b`` of
    w = q y for ``_farkas``.  Both readers take any positive scaling q,
    so each solve hands them its integer numerators over q.

    The artificial columns of B are unit vectors, so both systems reduce
    to one square block S: the structural basis columns on the rows C
    that no basic artificial covers (R are the covered rows, in basis
    order).  ``B x = b`` is ``S x_S = b_C`` with the basic artificials
    ``x_R = b_R - S_R x_S``, and ``B^T y = c_B`` is ``y_R = 1`` with
    ``S^T y_C = -S_R^T 1``.  Each is solved by p-adic lifting
    (:func:`jointfeas.linalg.lifted_solve`), or by Bareiss elimination
    when S is singular modulo the lifting prime.  A basis whose
    artificials repeat leaves S not square, and one with a repeated
    structural column leaves it singular: B is singular then, and proves
    nothing.  A nonsingular B fixes x and y uniquely, so the solver
    changes the cost, never the result.  No basis passes both readers
    (the Farkas alternative), so ``dual_first`` changes which solve runs
    first, never the result.
    """
    m, n = matrix.shape
    structural = [j for j in basis if j < n]
    covered = [j - n for j in basis if j >= n]
    free = sorted(set(range(m)).difference(covered))
    if len(free) != len(structural):  # an artificial column repeats: B is singular
        return None
    columns = matrix[:, structural]
    # A sign of -1 takes int64's minimum -2**63 past int64, so the test is
    # on the peak, not on the dtype.
    dtype = np.int64 if peak(columns) <= _INT64_MAX else object
    block = np.asarray(columns, dtype) * np.array(signs, dtype)[:, None]
    square, rest = block[free], block[covered]

    def primal(x: list[int], q: int) -> EqualityFeasibility | None:
        solved, shift = iter(x), iter(product(rest, integers(x)).tolist())
        values = [next(solved) if j < n else q * b[j - n] - next(shift) for j in basis]
        return _solution(values, basis, n, q, scale, pivots)

    def dual(y: list[int], q: int) -> EqualityFeasibility | None:
        w = [q] * m
        for i, v in zip(free, y):
            w[i] = v
        costs = product(integers([wi * s for wi, s in zip(w, signs)]), matrix, top)
        cost = [*(-costs).tolist(), *(q - wi for wi in w), -sum(wi * bi for wi, bi in zip(w, b))]
        return _farkas(cost, n, q, signs, pivots)

    ones = np.ones(len(covered), np.int64)
    checks = [
        (primal, square, [b[i] for i in free]),
        (dual, square.T, [-v for v in product(ones, rest).tolist()]),
    ]
    for read, system, rhs in reversed(checks) if dual_first else checks:
        solved = lifted_solve(system, rhs)
        if solved is None:  # singular modulo the prime: Bareiss decides
            solved = _bareiss(system, rhs)
        if solved is None:
            return None
        result = read(*solved)
        if result is not None:
            return result
    return None


def _bareiss(square: np.ndarray, rhs: list[int]) -> tuple[list[int], int] | None:
    """``(|det| x, |det|)`` for ``square @ x = rhs`` by Bareiss elimination, or None if singular."""
    k = len(square)
    mat, piv, det = echelon([[*row, v] for row, v in zip(square.tolist(), rhs)], pivot_cols=k)
    if len(piv) != k:
        return None
    sign = 1 if det > 0 else -1
    return [sign * row[k] for row in mat], abs(det)
