"""Factoring hidden variables: construction and verification.

Given a joint distribution, a conditioning variable that renders the
observables independent always exists: give each positive-mass atom its
own lambda point carrying the atom's probability, with point-mass
conditionals.  The mixture over lambda reproduces the joint exactly and
every conditional variance is zero (the deterministic construction).

For two exchangeable +-1 observables with a symmetry requirement on the
conditional expectations, existence is far more restrictive: it holds
exactly when the correlation is nonnegative, and a two-point mixing
measure suffices.  Both the criterion and the explicit construction
live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from types import MappingProxyType
from typing import Mapping, Sequence

from .algebraic import as_fraction, exact_text
from .check import _monomial_tables
from .errors import ValidationError
from .probability import (
    Atom,
    FiniteRandomVariable,
    JointDistribution,
    point_mass,
)

__all__ = [
    "ExchangeableCriterion",
    "ExchangeableConstruction",
    "FactorizationReport",
    "HiddenVariableModel",
    "LambdaPoint",
    "construct_deterministic",
    "exchangeable_symmetric_construct",
    "exchangeable_symmetric_criterion",
    "verify_factorization",
    "verify_noncontextuality",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LambdaPoint:
    """One value of the hidden variable: weight plus conditional joint law."""

    label: str
    probability: Fraction
    conditional: JointDistribution

    def __post_init__(self) -> None:
        p = as_fraction(self.probability)
        if p < 0:
            raise ValidationError(f"lambda point {self.label}: negative probability {exact_text(p)}")
        object.__setattr__(self, "probability", p)


@dataclass(frozen=True)
class HiddenVariableModel:
    """Hidden variable over finitely many points with joint conditionals.

    ``context_tables`` optionally records a lambda distribution per
    measurement context; the constructions here never populate it (one
    global distribution), and :func:`verify_noncontextuality` checks any
    populated tables for exact agreement.
    """

    variables: tuple[FiniteRandomVariable, ...]
    points: tuple[LambdaPoint, ...]
    context_tables: Mapping[str, tuple[Fraction, ...]] | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("a hidden-variable model needs at least one point")
        total = sum((pt.probability for pt in self.points), _ZERO)
        if total != 1:
            raise ValidationError(f"lambda probabilities sum to {exact_text(total)}, expected 1")
        variables = tuple(self.variables)
        for pt in self.points:
            if pt.conditional.variables != variables:
                raise ValidationError(
                    f"lambda point {pt.label}: conditional is not over the model's variables and supports"
                )
        if self.context_tables is not None:
            tables = {k: tuple(as_fraction(x) for x in v) for k, v in self.context_tables.items()}
            for ctx, tab in tables.items():
                if len(tab) != len(self.points):
                    raise ValidationError(f"context {ctx}: lambda table has wrong length")
                if sum(tab, _ZERO) != 1 or any(x < 0 for x in tab):
                    raise ValidationError(f"context {ctx}: lambda table is not a distribution")
            object.__setattr__(self, "context_tables", MappingProxyType(tables))

    @property
    def deterministic(self) -> bool:
        """True when every conditional is a point mass (zero conditional variance)."""
        return all(len(pt.conditional.mass) == 1 for pt in self.points)

    def mixture(self) -> JointDistribution:
        """The joint distribution of the observables this model induces."""
        acc: dict[Atom, Fraction] = {}
        for pt in self.points:
            if pt.probability == 0:
                continue
            for atom, p in pt.conditional.mass.items():
                acc[atom] = acc.get(atom, _ZERO) + pt.probability * p
        return JointDistribution(self.variables, acc)


def construct_deterministic(dist: JointDistribution) -> HiddenVariableModel:
    """One lambda point per positive-mass atom, point-mass conditionals.

    The mixture over lambda reproduces ``dist`` exactly, conditional
    independence holds trivially per point, and each observable has zero
    conditional variance given lambda.
    """
    points = []
    for atom, p in dist.mass.items():
        values = dist.values_at(atom)
        label = "(" + ",".join(str(v) for v in values) + ")"
        points.append(LambdaPoint(label, p, point_mass(dist.variables, atom)))
    return HiddenVariableModel(dist.variables, tuple(points))


@dataclass(frozen=True)
class FactorizationReport:
    ok: bool
    order: str
    worst_discrepancy: Fraction
    worst_location: str = ""


def verify_factorization(model: HiddenVariableModel, order: int | str = "full") -> FactorizationReport:
    """Does every conditional law factor across the observables?

    Each lambda point's conditional masses are put over one common
    denominator S (the lcm of their denominators), so a mass p is the
    integer m = p * S, and n observables compare in integers:

    order "full": the conditional pmf of each lambda point must equal
    the product of its one-variable marginals on every atom, that is
    m(atom) * S^(n-1) must equal the product of the integer marginals.
    Only the atoms in the product of the marginal supports (the support
    indices with positive marginal mass) are visited, in ``atom_space``
    order: off that product both the conditional mass and the product
    of marginals are exactly 0, so the gap there is 0 and could never
    replace the worst one.  The report is the one a scan of the whole
    lattice gives, ties included, and a point-mass conditional costs
    one atom.
    order 1: the conditional expectation of the product of all
    observables must equal the product of their conditional
    expectations (per lambda point).  With each support over its common
    denominator (the tables of :func:`jointfeas.check._monomial_tables`,
    built once per model), the joint moment's integer numerator times
    S^(n-1) must equal the product of the single-variable numerators.
    order 2: order 1 plus the same identity for squared observables.

    All comparisons are exact; a ``Fraction`` gap is built only where
    the two integers differ.  The report carries the largest absolute
    discrepancy found and where it first occurred.
    """
    if isinstance(order, bool) or not isinstance(order, (int, str)) or order not in (1, 2, "full"):
        raise ValidationError(f"order must be 1, 2 or 'full', got {order!r}")
    worst = _ZERO
    where = ""
    variables = model.variables
    n = len(variables)
    powers = () if order == "full" else (1, 2)[:order]
    tables = [_monomial_tables(variables, [(i, power) for i in range(n)]) for power in powers]
    for pt in model.points:
        cond = pt.conditional
        scale = lcm(*[p.denominator for p in cond.mass.values()])
        mass = {atom: p.numerator * (scale // p.denominator) for atom, p in cond.mass.items()}
        lift = scale ** (n - 1)
        if order == "full":
            marginals: list[dict[int, int]] = [{} for _ in range(n)]
            for atom, m in mass.items():
                for marg, i in zip(marginals, atom):
                    marg[i] = marg.get(i, 0) + m
            for atom in itertools.product(*[sorted(marg) for marg in marginals]):
                diff = mass.get(atom, 0) * lift - prod([marg[i] for marg, i in zip(marginals, atom)])
                if diff:
                    gap = Fraction(abs(diff), scale**n)
                    if gap > worst:
                        worst, where = gap, f"lambda {pt.label}, atom {atom}"
            continue
        for power, (factors, den) in zip(powers, tables):
            joint, singles = 0, [0] * n
            for atom, m in mass.items():
                values = [table[atom[i]] for i, table in factors]
                joint += m * prod(values)
                for i, v in enumerate(values):
                    singles[i] += m * v
            diff = joint * lift - prod(singles)
            if diff:
                gap = Fraction(abs(diff), scale**n * den)
                if gap > worst:
                    worst, where = gap, f"lambda {pt.label}, moment order {power}"
    return FactorizationReport(worst == 0, str(order), worst, where)


def verify_noncontextuality(
    model: HiddenVariableModel, contexts: Sequence[Sequence[str]]
) -> bool:
    """Is the lambda distribution identical across measurement contexts?

    The deterministic construction carries a single global lambda
    distribution, so models without context-indexed tables pass for any
    declared context partition.  When per-context tables are present,
    they must agree exactly (with the global table and each other).
    """
    names = [v.name for v in model.variables]
    seen: set[str] = set()
    for ctx in contexts:
        for n in ctx:
            if n not in names:
                raise ValidationError(f"context references unknown variable {n!r}")
            if n in seen:
                raise ValidationError(f"variable {n!r} appears in two contexts")
            seen.add(n)
    if not model.context_tables:
        return True
    global_table = tuple(pt.probability for pt in model.points)
    return all(table == global_table for table in model.context_tables.values())


# ---------------------------------------------------------------------------
# Exchangeable symmetric pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExchangeableCriterion:
    """Existence verdict for a symmetric factoring hidden variable.

    ``exists`` is None when the correlation is undefined (zero
    variance); otherwise existence holds exactly for correlation >= 0.
    """

    exists: bool | None
    correlation: Fraction | None
    note: str


def _exchangeable_cells(p11, p10, p01, p00) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    cells = tuple(as_fraction(p) for p in (p11, p10, p01, p00))
    if any(p < 0 for p in cells):
        raise ValidationError("cell probabilities must be nonnegative")
    if sum(cells, _ZERO) != 1:
        raise ValidationError("cell probabilities must sum to exactly 1")
    if cells[1] != cells[2]:
        raise ValidationError(
            f"exchangeability requires P(1,-1) = P(-1,1); got {exact_text(cells[1])} and {exact_text(cells[2])}"
        )
    return cells


def exchangeable_symmetric_criterion(p11, p10, p01, p00) -> ExchangeableCriterion:
    """For exchangeable +-1 observables: symmetric hidden variable iff rho >= 0."""
    c11, c10, _, c00 = _exchangeable_cells(p11, p10, p01, p00)
    mean = c11 - c00
    var = 1 - mean * mean
    if var == 0:
        return ExchangeableCriterion(None, None, "zero variance: correlation undefined")
    exy = c11 + c00 - 2 * c10
    rho = (exy - mean * mean) / var
    if rho >= 0:
        return ExchangeableCriterion(True, rho, f"correlation {exact_text(rho)} >= 0")
    return ExchangeableCriterion(False, rho, f"correlation {exact_text(rho)} < 0")


@dataclass(frozen=True)
class ExchangeableConstruction:
    model: HiddenVariableModel | None
    criterion: ExchangeableCriterion
    note: str


def _symmetric_conditional(
    variables: tuple[FiniteRandomVariable, FiniteRandomVariable], t: Fraction
) -> JointDistribution:
    """Conditionally independent pair with P(X=1|t) = P(Y=1|t) = (1+t)/2."""
    up = (1 + t) / 2
    down = (1 - t) / 2
    mass = {
        (1, 1): up * up,
        (1, 0): up * down,
        (0, 1): down * up,
        (0, 0): down * down,
    }
    return JointDistribution(variables, mass)


def exchangeable_symmetric_construct(
    p11, p10, p01, p00, names: tuple[str, str] = ("X", "Y")
) -> ExchangeableConstruction:
    """Explicit two-point symmetric hidden variable when one exists.

    Each lambda point carries a tilt t in [-1, 1]; conditionally on t
    the observables are independent with common mean t.  Matching the
    cells needs a measure on [-1, 1] with mean E(X) and second moment
    E(XY), which exists exactly when E(XY) >= E(X)^2, i.e. rho >= 0.
    Anchoring one point at t = 1 keeps the solution rational:

        weight at 1:  w = v / ((1 - m)^2 + v),   v = E(XY) - E(X)^2
        other point:  t = (m - w) / (1 - w),     with weight 1 - w.
    """
    criterion = exchangeable_symmetric_criterion(p11, p10, p01, p00)
    if not criterion.exists:
        return ExchangeableConstruction(None, criterion, criterion.note)

    c11, c10, _, c00 = _exchangeable_cells(p11, p10, p01, p00)
    m = c11 - c00
    exy = c11 + c00 - 2 * c10
    v = exy - m * m
    variables = (
        FiniteRandomVariable(names[0], (Fraction(-1), Fraction(1))),
        FiniteRandomVariable(names[1], (Fraction(-1), Fraction(1))),
    )
    if v == 0:
        points = (LambdaPoint(f"t={exact_text(m)}", _ONE, _symmetric_conditional(variables, m)),)
    else:
        w = v / ((1 - m) * (1 - m) + v)
        t = (m - w) / (1 - w)
        points = (
            LambdaPoint(f"t={exact_text(t)}", 1 - w, _symmetric_conditional(variables, t)),
            LambdaPoint("t=1", w, _symmetric_conditional(variables, _ONE)),
        )
    model = HiddenVariableModel(variables, points)

    # The construction is exact by design; recheck anyway.
    mix = model.mixture()
    got = (
        mix.prob(frozenset({(1, 1)})),
        mix.prob(frozenset({(1, 0)})),
        mix.prob(frozenset({(0, 1)})),
        mix.prob(frozenset({(0, 0)})),
    )
    if got != (c11, c10, c10, c00):
        raise AssertionError(f"mixture mismatch: {', '.join(map(exact_text, got))}")
    report = verify_factorization(model, "full")
    if not report.ok:
        raise AssertionError("symmetric construction failed factorization")
    return ExchangeableConstruction(model, criterion, "two-point symmetric mixture")
