"""Exact soundness gates for feasibility verdicts.

Every verdict of :mod:`jointfeas.feasibility` passes one of two gates
here before it is returned, and each gate makes one integer pass over
what its proof touches.  A witness's atoms must be points of the
lattice, and its masses, put over their common denominator once, must
be nonnegative, sum to exactly 1 and meet every moment, each moment
compared with its target by cross-multiplying integers
(:func:`_checked_witness`).  The gate is the witness's only validation:
:mod:`jointfeas.feasibility` builds the returned distribution without
checking it again.  A certificate
must pass :func:`verify_certificate`, which decides the sign of its
constant term in integers and evaluates its functional by broadcasting
each factor's table along its variable's axis, over only the variables
the functional touches, in blocks of at most ``_CHUNK`` cells.  Both
read only the problem's supports, constraints and the proof itself, and
build their integer tables with one helper, :func:`_monomial_tables`,
which :func:`jointfeas.hidden_variable.verify_factorization` and the
moment kernel of :func:`jointfeas.probability.expectation`
(:func:`_weighted_moment`) share.  This module imports nothing from the
row builder, the simplex, the cone oracle or the exact linear algebra,
so a fault in any of them
cannot vouch for its own output.  A failed gate raises
``AssertionError`` from an explicit test, which survives ``python -O``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Mapping, Sequence

import numpy as np

from .algebraic import as_fraction, exact_text
from .errors import ValidationError

_INT64_MAX = (1 << 63) - 1
# Lattice cells per vectorized step of the certificate gate.
_CHUNK = 1 << 16


def _integer_support(support: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The support's common denominator D_v, and the support values times it."""
    d = lcm(*[x.denominator for x in support])
    return d, [x.numerator * (d // x.denominator) for x in support]


def _monomial_tables(
    variables: Sequence, exponents, supports: dict | None = None
) -> tuple[list[tuple[int, list[int]]], int]:
    """Integer tables of the monomial prod X_i^k_i, and its denominator prod(D_v ** k).

    Per (variable position, k) pair, the table holds the support's
    numerators over its common denominator D_v, raised to k.  A caller
    building several monomials passes one ``supports`` dict, which keeps
    each variable's :func:`_integer_support` by position, so it is built
    once.  lcm gets lists, not generators: CPython unpacks a generator
    into a shrunk 10-slot tuple, and in a hot loop those pile up on its
    tuple free lists (peak RSS).
    """
    supports = {} if supports is None else supports
    factors, den = [], 1
    for position, k in exponents:
        if position not in supports:
            supports[position] = _integer_support(variables[position].support)
        d, numerators = supports[position]
        factors.append((position, [x**k for x in numerators]))
        den *= d**k
    return factors, den


def _weighted_moment(
    variables: Sequence, atoms, weights: Sequence[int], exponents, supports: dict | None = None
) -> tuple[int, int]:
    """``(total, den)``: the sum over atoms of weight * prod X_i^k_i is total / den.

    ``den`` is the monomial's denominator from :func:`_monomial_tables`;
    every product and sum is in integers.
    """
    factors, den = _monomial_tables(variables, exponents, supports)
    total = 0
    for atom, term in zip(atoms, weights):
        for position, table in factors:
            term *= table[atom[position]]
        total += term
    return total, den


def _moment(variables: Sequence, mass: Mapping, scale: int, exponents) -> Fraction:
    """E(prod X_i^k_i) for atom masses in multiples of ``1 / scale``, summed in integers."""
    weights = [p.numerator * (scale // p.denominator) for p in mass.values()]
    total, den = _weighted_moment(variables, mass, weights, exponents)
    return Fraction(total, scale * den)


def _holds(got: int, relation: str, wanted: int) -> bool:
    if relation == "<=":
        return got <= wanted
    if relation == ">=":
        return got >= wanted
    return got == wanted


def _checked_witness(problem, mass: Mapping[tuple[int, ...], Fraction]) -> None:
    """Accept atom masses only if they form a distribution meeting every moment.

    Every atom must hold one support index per variable, each in range.
    The masses are put over their common denominator ``scale`` once.
    Each must be nonnegative and the total exactly 1.  Per (variable, k)
    pair the atoms' values of X_i^k, as support numerators over
    D_v ** k, are read off once into one column; a moment is then
    the sum over atoms of weight times the product of its columns,
    ``got / (scale * den)`` in integers, and is compared with its target
    p / q as ``got * q`` against ``p * scale * den``; a ``Fraction`` is
    built only for a failure's message.
    """
    variables = problem.variables
    atoms = list(mass)
    for atom in atoms:
        if len(atom) != len(variables):
            raise AssertionError(f"witness atom {atom} has wrong arity")
    indices = list(zip(*atoms))  # per variable, its support index at each atom
    for column, v in zip(indices, variables):
        if min(column) < 0 or max(column) >= len(v.support):
            atom = next(a for a, i in zip(atoms, column) if not 0 <= i < len(v.support))
            raise AssertionError(f"witness atom {atom} indexes outside a support")
    ratios = [p.as_integer_ratio() for p in mass.values()]
    scale = lcm(*[q for _, q in ratios])
    weights = [p * (scale // q) for p, q in ratios]
    for atom, w in zip(atoms, weights):
        if w < 0:
            raise AssertionError(f"witness has negative mass {exact_text(mass[atom])} at atom {atom}")
    total = sum(weights)
    if total != scale:
        raise AssertionError(f"witness masses sum to {exact_text(Fraction(total, scale))}, expected exactly 1")
    position = {v.name: i for i, v in enumerate(variables)}
    supports: dict = {}
    columns: dict = {}  # (name, k) -> (the atoms' support numerators to the k, D_v ** k)
    for c in problem.constraints:
        got, den = weights, 1
        for name_k in c.exponents:
            column = columns.get(name_k)
            if column is None:
                i = position[name_k[0]]
                ((_, table),), d = _monomial_tables(variables, [(i, name_k[1])], supports)
                column = columns[name_k] = [table[j] for j in indices[i]], d
            got = list(map(mul, got, column[0]))
            den *= column[1]
        got = sum(got)
        p, q = c.target.as_integer_ratio()
        if not _holds(got * q, c.relation, p * scale * den):
            raise AssertionError(f"witness violates {c.describe()}: got {exact_text(Fraction(got, scale * den))}")


def _checked_certificate(problem, cert: tuple[Fraction, ...], method: str) -> tuple[Fraction, ...]:
    """The infeasibility certificate, once :func:`verify_certificate` accepts it."""
    if not verify_certificate(problem, cert):  # soundness gate, never expected
        raise AssertionError(f"{method} produced an invalid infeasibility certificate")
    return cert


def verify_certificate(problem, certificate: Sequence[Fraction]) -> bool:
    """Exact check of an infeasibility certificate.

    The certificate has one coefficient per constraint plus one for the
    normalization row (last).  It is valid when the combined functional
    is nonnegative on every atom while its combined target value is
    negative; no distribution can satisfy both.  Coefficients on
    inequality-bounded constraints must additionally respect the bound's
    direction (>= 0 for <=, <= 0 for >=).
    """
    m = len(problem.constraints)
    if len(certificate) != m + 1:
        raise ValidationError(
            f"certificate has {len(certificate)} coefficients, expected {m + 1}"
        )
    cert = [as_fraction(c) for c in certificate]
    for c, w in zip(problem.constraints, cert):
        if c.relation == "<=" and w < 0:
            return False
        if c.relation == ">=" and w > 0:
            return False

    # Integer weights: L, the lcm of the certificate's denominators,
    # times each coefficient.  The constant term, times L and the lcm T
    # of the used targets' denominators, is then an integer.
    scale = lcm(*[w.denominator for w in cert])
    weights = [w.numerator * (scale // w.denominator) for w in cert]
    used = [(c, w) for c, w in zip(problem.constraints, weights) if w]
    tden = lcm(*[c.target.denominator for c, _ in used])
    constant = weights[m] * tden + sum([w * c.target.numerator * (tden // c.target.denominator) for c, w in used])
    if constant >= 0:
        return False

    # With T now the lcm of the value denominators of the used monomials,
    # T*L times the functional at an atom is  base + sum_i weight_i * M_i(atom),
    # where M_i multiplies support numerators raised to their exponents.
    position = {v.name: i for i, v in enumerate(problem.variables)}
    supports: dict = {}
    monomials = []
    for c, w in used:
        exponents = [(position[name], k) for name, k in c.exponents]
        factors, den = _monomial_tables(problem.variables, exponents, supports)
        monomials.append((w, den, factors))
    common = lcm(*[den for _, den, _ in monomials])
    base = weights[m] * common
    terms = [(w * (common // den), factors) for w, den, factors in monomials]
    # Every partial sum and product below is at most this in magnitude.
    bound = abs(base) + sum(
        [abs(w) * prod([max(1, max(table), -min(table)) for _, table in factors]) for w, factors in terms]
    )
    dtype = np.int64 if bound <= _INT64_MAX else object
    return _nonnegative(problem, base, terms, dtype)


def _nonnegative(problem, base: int, terms, dtype) -> bool:
    """Is base + sum_t w_t * prod table_i[x_i] >= 0 on every atom?

    The sum spans only the axes of the variables the terms touch; the
    functional does not vary along the others.  Each factor's table lies
    along its variable's axis, and the terms are added by broadcasting.
    The trailing axes that fit in ``_CHUNK`` cells together are one
    static array: the terms on those axes alone are added into it once.
    The rest of the sub-lattice is walked in blocks of at most
    ``_CHUNK`` cells: one index of each leading axis, which makes its
    factors scalars, and one run of cells along the axis before the
    trailing ones.
    """
    axes = sorted({i for _, factors in terms for i, _ in factors})
    axis_of = {position: a for a, position in enumerate(axes)}
    shape = [len(problem.variables[i].support) for i in axes]
    first, tail = len(shape), 1  # the trailing axes are shape[first:], with tail cells
    while first and tail * shape[first - 1] <= _CHUNK:
        first -= 1
        tail *= shape[first]
    trailing = shape[first:]
    static = np.full(trailing, base, dtype)
    varying_terms = []
    for w, factors in terms:
        fixed, varying = w, []
        for position, table in factors:
            a = axis_of[position]
            if a >= first:
                along = [1] * len(trailing)
                along[a - first] = -1
                fixed = fixed * np.array(table, dtype).reshape(along)
            elif a == first - 1:
                varying.append((a, np.array(table, dtype).reshape([-1] + [1] * len(trailing))))
            else:
                varying.append((a, table))
        if varying:
            varying_terms.append((fixed, varying))
        else:
            static += fixed
    if not varying_terms:
        return not (static < 0).any()

    split, run = first - 1, _CHUNK // tail
    for lead in itertools.product(*[range(n) for n in shape[:split]]):
        for start in range(0, shape[split], run):
            stop = min(start + run, shape[split])
            value = np.broadcast_to(static, [stop - start, *trailing]).copy()
            for term, varying in varying_terms:
                for a, table in varying:
                    term = term * (table[lead[a]] if a < split else table[start:stop])
                value += term
            if (value < 0).any():
                return False
    return True
