"""Exact linear algebra on integer matrices: fraction-free (Bareiss) and p-adic.

One update, :func:`pivot`, is the package's only fraction-free
elimination step (Bareiss, Math. Comp. 22, 1968; Edmonds, J. Res. NBS
71B, 1967).  :func:`echelon` runs Gauss-Jordan elimination with it, and
the exact simplex loop of :mod:`jointfeas.simplex` pivots its integer
tableau with it.  Rank and independent rows, nullspaces, solves and
inverses are all read off :func:`echelon`'s result.

A square nonsingular system, the simplex's certificate solve, is
solved faster by :func:`lifted_solve` (Dixon, Numer. Math. 40, 1982):
one inverse modulo :data:`PRIME`, in int64, then p-adic lifting and
rational reconstruction, accepted only after an exact integer check.
When the system is singular modulo the prime it returns None, and
:func:`echelon` decides.  :func:`product` multiplies integer arrays in
int64 when a bound computed first allows it, and on Python ints
otherwise.

Rational input is scaled to integers one row at a time
(:func:`integral`); that changes neither a row space, nor a nullspace,
nor the solutions of a linear system.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

import numpy as np

__all__ = [
    "echelon",
    "independent_rows",
    "integers",
    "integral",
    "inverse",
    "lifted_solve",
    "nullspace",
    "peak",
    "pivot",
    "primitive",
    "product",
    "solve",
]

IntVec = tuple[int, ...]

_INT64_MAX = (1 << 63) - 1
# The lifting prime, 2**26 - 5: a product of two residues is below 2**52,
# so int64 sums of up to _SPAN such products cannot overflow.
PRIME = 67_108_859
_SPAN = (_INT64_MAX - PRIME) // (PRIME - 1) ** 2


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


# ---------------------------------------------------------------------------
# Bounded int64 products and the p-adic solve
# ---------------------------------------------------------------------------


def peak(a: np.ndarray) -> int:
    """The largest entry magnitude of an integer array, as a Python int (0 when empty)."""
    if not a.size:
        return 0
    if a.dtype.kind in "iu":
        return max(int(a.max()), -int(a.min()))
    return max(map(abs, a.flat))


def integers(values: Sequence[int]) -> np.ndarray:
    """Python ints as an int64 array when every one fits, else as an object array."""
    fits = max(map(abs, values), default=0) <= _INT64_MAX
    return np.array(values, np.int64 if fits else object)


def product(a: np.ndarray, b: np.ndarray, top_b: int | None = None) -> np.ndarray:
    """``a @ b`` of integer arrays, exactly.

    It runs in int64 when ``peak(a) * peak(b)`` times the inner dimension
    fits (each peak counted as at least 1, so that both arrays fit too),
    a bound computed before the product, and on Python ints otherwise.
    A caller that already knows ``peak(b)`` passes it as ``top_b``.
    """
    if top_b is None:
        top_b = peak(b)
    dtype = np.int64 if max(peak(a), 1) * max(top_b, 1) * a.shape[-1] <= _INT64_MAX else object
    return np.asarray(a, dtype) @ np.asarray(b, dtype)


def lifted_solve(square: np.ndarray, rhs: Sequence[int]) -> tuple[list[int], int] | None:
    """The solution of ``square @ x = rhs`` as ``(num, q)``, x = num / q with q > 0.

    Dixon's p-adic lifting (Numer. Math. 40, 1982): ``square`` is
    inverted once modulo :data:`PRIME`, and each step takes one more
    p-adic digit of x from the residual, so after k steps X is x modulo
    P = p**k.  After steps 1, 2, 4, 8, ... and at the final step, every
    entry of X is read back as a rational by the half-extended
    Euclidean algorithm, one entry at a time, with q the lcm of the
    denominators so far (Wang, SYMSAC 1981).  A reading costs more the
    longer P is, so reading only at powers of two keeps the readings'
    total within a small multiple of the last one's, at most
    floor(log2(steps)) + 2 readings per solve.  A candidate is returned
    only if ``square @ num == q * rhs`` holds exactly, so the result is
    the unique solution.  Lifting stops once P exceeds twice the
    Hadamard bounds on the numerators and on det ``square`` multiplied
    together; reconstruction within those bounds cannot fail, so
    reaching the stop returns None only on a fault.

    Returns None when ``square`` is singular modulo the prime, which it
    is whenever it is singular over the rationals; the caller then
    decides with :func:`echelon`.  ``square`` is an int64 or object
    array, ``rhs`` holds Python ints.
    """
    k = len(square)
    if not k:
        return [], 1
    inverse_mod = _inverse_mod(np.asarray(square % PRIME, np.int64))
    if inverse_mod is None:
        return None
    top, rhs_top = peak(square), max(map(abs, rhs))
    # Each residual stays within max(rhs_top, k * top), and before its
    # division by p within that plus k * top * (p - 1).
    dtype = np.int64 if max(rhs_top, k * top) + k * top * (PRIME - 1) <= _INT64_MAX else object
    matrix, residual = np.asarray(square, dtype), np.array(rhs, dtype)
    # Hadamard: |det square| < den_limit and, by Cramer's rule, every
    # numerator of x over det square is below num_limit in magnitude.
    column = isqrt(k * top * top) + 1  # above every column 2-norm
    den_limit = column**k
    num_limit = (isqrt(k * rhs_top * rhs_top) + 1) * column ** (k - 1)
    digits_sum, modulus, steps = [0] * k, 1, 0
    while True:
        digits = _mod_product(inverse_mod, np.asarray(residual % PRIME, np.int64))
        digits_sum = [s + x * modulus for s, x in zip(digits_sum, digits.tolist())]
        residual = (residual - matrix @ digits.astype(dtype)) // PRIME
        modulus *= PRIME
        steps += 1
        final = modulus > 2 * num_limit * den_limit
        if not final and steps & (steps - 1):  # read back only after a power of two steps
            continue
        if final:
            num_bound, den_bound = num_limit, den_limit
        else:
            num_bound = den_bound = isqrt((modulus - 1) // 2)
        found = _reconstruct(digits_sum, modulus, num_bound, den_bound)
        if found is not None:
            num, q = found
            if product(square, integers(num)).tolist() == [q * v for v in rhs]:
                return num, q
        if final:
            return None


def _inverse_mod(residues: np.ndarray) -> np.ndarray | None:
    """The inverse of an int64 matrix of residues modulo :data:`PRIME`, or None if singular there.

    Gauss-Jordan on ``[residues | I]``.  Each step reduces only its pivot
    column and pivot row; every other entry stays below p and falls by
    at most (p - 1)**2 per step, so one full reduction every ``_SPAN``
    steps keeps every entry within int64.
    """
    k = len(residues)
    tab = np.concatenate([residues, np.eye(k, dtype=np.int64)], axis=1)
    for c in range(k):
        if c and not c % _SPAN:
            tab %= PRIME
        column = tab[:, c] % PRIME
        if not column[c]:
            r = c + int(column[c:].argmax())  # residues are nonnegative: any nonzero one serves
            if not column[r]:
                return None
            tab[[c, r]] = tab[[r, c]]
            column[[c, r]] = column[[r, c]]
        row = tab[c, c:]
        row %= PRIME
        row *= pow(int(column[c]), -1, PRIME)
        row %= PRIME
        column[c] = 0  # the pivot row stays as scaled
        tab[:, c:] -= np.multiply.outer(column, row)
    return tab[:, k:] % PRIME


def _mod_product(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(a @ v) % PRIME`` for int64 residues, summing at most ``_SPAN`` products at a time."""
    out = np.zeros(len(a), np.int64)
    for lo in range(0, len(v), _SPAN):
        out = (out + a[:, lo : lo + _SPAN] @ v[lo : lo + _SPAN]) % PRIME
    return out


def _reconstruct(residues: list[int], modulus: int, num_bound: int, den_bound: int) -> tuple[list[int], int] | None:
    """``(num, q)`` with ``num[i] = q * residues[i]`` modulo ``modulus``, all within the bounds, or None.

    Entry by entry: when ``q * r`` modulo ``modulus`` (taken between
    -modulus/2 and modulus/2) exceeds ``num_bound``, the half-extended
    Euclidean algorithm finds an extra denominator t that brings it
    within, and q becomes q * t; q may not pass ``den_bound``.  With
    2 num_bound den_bound < modulus such a rational is unique.
    """
    q = 1
    for r in residues:
        if abs(_balanced(q * r, modulus)) <= num_bound:
            continue
        r0, r1, t0, t1 = modulus, q * r % modulus, 0, 1
        while r1 > num_bound:
            f = r0 // r1
            r0, r1, t0, t1 = r1, r0 - f * r1, t1, t0 - f * t1
        q *= abs(t1)
        if q > den_bound:
            return None
    return [_balanced(q * r, modulus) for r in residues], q


def _balanced(value: int, modulus: int) -> int:
    """``value`` modulo ``modulus``, between -modulus/2 and modulus/2."""
    value %= modulus
    return value - modulus if 2 * value > modulus else value
