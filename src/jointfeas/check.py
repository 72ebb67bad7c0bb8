"""Exact soundness gates for feasibility verdicts.

Every verdict of :mod:`jointfeas.feasibility` passes one of two gates
here before it is returned.  A witness's atom masses must be
nonnegative, sum to exactly 1 and meet every moment
(:func:`_checked_witness`).  A certificate must pass
:func:`verify_certificate`, which evaluates its functional over the
whole atom lattice.  Both read only the problem's supports, constraints
and the proof itself, and build their integer tables with one helper,
:func:`_monomial_tables`, which :func:`jointfeas.probability.expectation`
and :func:`jointfeas.hidden_variable.verify_factorization` share.  This
module imports nothing from the row builder, the simplex, the cone
oracle or the exact linear algebra, so a fault in any of them cannot
vouch for its own output.  A failed gate raises
``AssertionError`` from an explicit test, which survives ``python -O``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Mapping, Sequence

import numpy as np

from .algebraic import as_fraction, exact_text
from .errors import ValidationError

_ZERO = Fraction(0)
_INT64_MAX = (1 << 63) - 1
# Atoms per vectorized step of the certificate gate.
_CHUNK = 1 << 16


def _monomial_tables(variables: Sequence, exponents) -> tuple[list[tuple[int, list[int]]], int]:
    """Integer tables of the monomial prod X_i^k_i, and its denominator prod(D_v ** k).

    Per (variable position, k) pair, the table holds the support's
    numerators over its common denominator D_v, raised to k.  lcm gets
    lists, not generators: CPython unpacks a generator into a shrunk
    10-slot tuple, and in a hot loop those pile up on its tuple free
    lists (peak RSS).
    """
    factors, den = [], 1
    for position, k in exponents:
        support = variables[position].support
        d = lcm(*[x.denominator for x in support])
        factors.append((position, [(x.numerator * (d // x.denominator)) ** k for x in support]))
        den *= d**k
    return factors, den


def _moment(variables: Sequence, mass: Mapping, scale: int, exponents) -> Fraction:
    """E(prod X_i^k_i) for atom masses in multiples of ``1 / scale``, summed in integers."""
    factors, den = _monomial_tables(variables, exponents)
    total = 0
    for atom, p in mass.items():
        term = p.numerator * (scale // p.denominator)
        for position, table in factors:
            term *= table[atom[position]]
        total += term
    return Fraction(total, scale * den)


def _satisfies(value: Fraction, constraint) -> bool:
    if constraint.relation == "<=":
        return value <= constraint.target
    if constraint.relation == ">=":
        return value >= constraint.target
    return value == constraint.target


def _checked_witness(problem, mass: Mapping[tuple[int, ...], Fraction]) -> None:
    """Accept atom masses only if they form a distribution meeting every moment.

    Each mass must be nonnegative and the total exactly 1; every moment
    is then recomputed from one common denominator of the masses.
    """
    for atom, p in mass.items():
        if p < 0:
            raise AssertionError(f"witness has negative mass {exact_text(p)} at atom {atom}")
    scale = lcm(*[p.denominator for p in mass.values()])
    total = sum([p.numerator * (scale // p.denominator) for p in mass.values()])
    if total != scale:
        raise AssertionError(f"witness masses sum to {exact_text(Fraction(total, scale))}, expected exactly 1")
    position = {v.name: i for i, v in enumerate(problem.variables)}
    for c in problem.constraints:
        got = _moment(problem.variables, mass, scale, [(position[name], k) for name, k in c.exponents])
        if not _satisfies(got, c):
            raise AssertionError(f"witness violates {c.describe()}: got {exact_text(got)}")


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
    constant = sum((c.target * w for c, w in zip(problem.constraints, cert)), _ZERO)
    constant += cert[m]
    if constant >= 0:
        return False

    # Integer form: with L the lcm of the certificate's denominators and
    # T the lcm of the value denominators of its monomials, T*L times the
    # functional at an atom is  base + sum_i weight_i * M_i(atom), where
    # M_i multiplies support numerators raised to their exponents.
    scale = lcm(*[w.denominator for w in cert])
    position = {v.name: i for i, v in enumerate(problem.variables)}
    monomials = []
    for c, w in zip(problem.constraints, cert):
        if w:
            exponents = [(position[name], k) for name, k in c.exponents]
            factors, den = _monomial_tables(problem.variables, exponents)
            monomials.append((w.numerator * (scale // w.denominator), den, factors))
    common = lcm(*[den for _, den, _ in monomials])
    base = cert[m].numerator * (scale // cert[m].denominator) * common
    weights = [(w * (common // den), factors) for w, den, factors in monomials]
    # Every partial sum and product below is at most this in magnitude.
    bound = abs(base) + sum(
        abs(w) * prod(max(1, *(abs(x) for x in table)) for _, table in factors) for w, factors in weights
    )
    dtype = np.int64 if bound <= _INT64_MAX else object
    terms = [(w, [(i, np.array(table, dtype)) for i, table in factors]) for w, factors in weights]

    shape = tuple(len(v.support) for v in problem.variables)
    count = prod(shape)
    for start in range(0, count, _CHUNK):
        index = np.unravel_index(np.arange(start, min(start + _CHUNK, count)), shape)
        value = np.full(len(index[0]), base, dtype)
        for w, factors in terms:
            term = np.full(len(index[0]), w, dtype)
            for i, table in factors:
                term *= table[index[i]]
            value += term
        if (value < 0).any():
            return False
    return True
