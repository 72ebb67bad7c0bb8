"""Exact finite probability: variables, joint distributions, moments.

All arithmetic in this module is exact: values and masses are
`fractions.Fraction`.  Moments are computed by a helper in
:mod:`jointfeas.check`, which sums integer numerators (supports over
their common denominators, masses over theirs) and builds one
`Fraction` at the end.  It shares only its integer support tables with
the witness gate, which sums each moment in its own loop, so a moment
read off a witness here is an independent recheck of that gate.
Feasibility verdicts and probability-1
statements elsewhere in the package lean on that exactness, so nothing
here may round.  Values are immutable after construction and every
operation is a pure function.

An *atom* is one joint outcome, stored as a tuple of support indices in
variable declaration order.  Distributions are sparse: an absent atom
has probability exactly zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .algebraic import ExactNumber, as_fraction, exact_text, make_surd
from .check import _moment
from .errors import ConstraintMismatchError, ValidationError

Atom = tuple[int, ...]
Event = frozenset  # frozenset[Atom]

RationalLike = Union[int, str, Fraction]


# Slotted: problems hold many of these, so no per-instance dict.
@dataclass(frozen=True, slots=True)
class FiniteRandomVariable:
    """A named observable with an ordered finite rational support."""

    name: str
    support: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.isidentifier():
            raise ValidationError(f"variable name must be an identifier: {self.name!r}")
        support = tuple(as_fraction(v) for v in self.support)
        if not support:
            raise ValidationError(f"variable {self.name}: empty support")
        for lo, hi in zip(support, support[1:]):
            if not lo < hi:
                raise ValidationError(
                    f"variable {self.name}: support must be strictly increasing"
                )
        object.__setattr__(self, "support", support)

    def index_of(self, value: RationalLike) -> int:
        v = as_fraction(value)
        try:
            return self.support.index(v)
        except ValueError:
            raise ValidationError(f"{exact_text(v)} is not in the support of {self.name}") from None


# One support for every +-1 variable: Fractions are immutable, so sharing
# them saves two objects per variable.
_PM_ONE = (Fraction(-1), Fraction(1))


def pm_one(name: str) -> FiniteRandomVariable:
    """The +-1 observable used throughout the Bell/CHSH material."""
    return FiniteRandomVariable(name, _PM_ONE)


def _check_variables(variables: Sequence[FiniteRandomVariable]) -> tuple[FiniteRandomVariable, ...]:
    vs = tuple(variables)
    if not vs:
        raise ValidationError("at least one variable is required")
    names = [v.name for v in vs]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate variable names: {names}")
    return vs


@dataclass(frozen=True)
class JointDistribution:
    """Exact probability assignment over the atom lattice of its variables.

    The constructor validates its input: each atom indexes one support
    value per variable, each mass is a nonnegative rational and the
    total is exactly 1.  Zero masses are dropped, masses on one atom
    added, and the atoms kept in sorted order.  A witness that
    :func:`jointfeas.check._checked_witness` has accepted has passed
    every one of those checks, so :mod:`jointfeas.feasibility` wraps it
    with :meth:`_trusted`, which skips them and builds an equal object.
    """

    variables: tuple[FiniteRandomVariable, ...]
    mass: Mapping[Atom, Fraction]

    @classmethod
    def _trusted(
        cls, variables: tuple[FiniteRandomVariable, ...], mass: Mapping[Atom, Fraction]
    ) -> JointDistribution:
        """The distribution of masses a gate has accepted, built without ``__post_init__``.

        ``variables`` is a checked tuple (a problem's) and ``mass`` maps
        distinct atoms, tuples of in-range support indices, to
        nonnegative ``Fraction``s summing to exactly 1.  The result
        equals ``JointDistribution(variables, mass)``.
        """
        dist = object.__new__(cls)
        object.__setattr__(dist, "variables", variables)
        object.__setattr__(dist, "mass", MappingProxyType({a: p for a, p in sorted(mass.items()) if p}))
        return dist

    def __post_init__(self) -> None:
        variables = _check_variables(self.variables)
        sizes = tuple(len(v.support) for v in variables)
        clean: dict[Atom, Fraction] = {}
        for atom, p in self.mass.items():
            atom = tuple(atom)
            if len(atom) != len(variables):
                raise ValidationError(f"atom {atom} has wrong arity")
            for idx, size in zip(atom, sizes):
                if not 0 <= idx < size:
                    raise ValidationError(f"atom {atom} indexes outside a support")
            p = as_fraction(p)
            if p.numerator < 0:
                raise ValidationError(f"negative probability {exact_text(p)} at atom {atom}")
            if p.numerator:
                clean[atom] = clean[atom] + p if atom in clean else p
        # The total over one common denominator, as the witness gate takes it.
        scale = lcm(*[p.denominator for p in clean.values()])
        total = sum([p.numerator * (scale // p.denominator) for p in clean.values()])
        if total != scale:
            raise ValidationError(f"probabilities sum to {exact_text(Fraction(total, scale))}, expected exactly 1")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "mass", MappingProxyType(dict(sorted(clean.items()))))

    # -- views ------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def index(self, name: str) -> int:
        for i, v in enumerate(self.variables):
            if v.name == name:
                return i
        raise ConstraintMismatchError(f"unknown variable {name!r}")

    def atom_space(self) -> Iterator[Atom]:
        return itertools.product(*(range(len(v.support)) for v in self.variables))

    def values_at(self, atom: Atom) -> tuple[Fraction, ...]:
        return tuple(v.support[i] for v, i in zip(self.variables, atom))

    def assignment(self, atom: Atom) -> dict[str, Fraction]:
        return {v.name: v.support[i] for v, i in zip(self.variables, atom)}

    def prob(self, atoms: Iterable[Atom]) -> Fraction:
        """Probability of an extensional event (a set of atoms).

        The event must be a subset of this distribution's atom lattice.
        """
        sizes = tuple(len(v.support) for v in self.variables)
        total = Fraction(0)
        for atom in set(map(tuple, atoms)):
            if len(atom) != len(sizes) or any(
                not 0 <= i < s for i, s in zip(atom, sizes)
            ):
                raise ValidationError(f"atom {atom} is outside this distribution's lattice")
            total += self.mass.get(atom, Fraction(0))
        return total

    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        """Marginal distribution over a subset of variables, in the given order."""
        positions = [self.index(n) for n in names]
        new_vars = tuple(self.variables[p] for p in positions)
        acc: dict[Atom, Fraction] = {}
        for atom, p in self.mass.items():
            key = tuple(atom[pos] for pos in positions)
            acc[key] = acc.get(key, Fraction(0)) + p
        return JointDistribution(new_vars, acc)


def distribution_from_values(
    variables: Sequence[FiniteRandomVariable],
    value_mass: Mapping[tuple[RationalLike, ...], RationalLike],
) -> JointDistribution:
    """Build a distribution keyed by outcome values instead of indices."""
    vs = _check_variables(variables)
    mass: dict[Atom, Fraction] = {}
    for values, p in value_mass.items():
        if len(values) != len(vs):
            raise ValidationError(f"outcome ({', '.join(map(exact_text, values))}) has wrong arity")
        atom = tuple(v.index_of(x) for v, x in zip(vs, values))
        mass[atom] = mass.get(atom, Fraction(0)) + as_fraction(p)
    return JointDistribution(vs, mass)


def uniform_distribution(variables: Sequence[FiniteRandomVariable]) -> JointDistribution:
    vs = _check_variables(variables)
    atoms = list(itertools.product(*(range(len(v.support)) for v in vs)))
    p = Fraction(1, len(atoms))
    return JointDistribution(vs, {a: p for a in atoms})


def point_mass(variables: Sequence[FiniteRandomVariable], atom: Atom) -> JointDistribution:
    return JointDistribution(tuple(variables), {tuple(atom): Fraction(1)})


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def expectation(dist: JointDistribution, exponents: Mapping[str, int]) -> Fraction:
    """Exact product moment E(prod X_i^k_i) for positive integer exponents."""
    if not exponents:
        raise ValidationError("at least one exponent is required")
    for name, k in exponents.items():
        if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
            raise ValidationError(f"exponent for {name} must be a positive integer")
    positions = [(dist.index(name), k) for name, k in exponents.items()]
    scale = lcm(*[p.denominator for p in dist.mass.values()])
    return _moment(dist.variables, dist.mass, scale, positions)


def variance(dist: JointDistribution, name: str) -> Fraction:
    mean = expectation(dist, {name: 1})
    return expectation(dist, {name: 2}) - mean * mean


def covariance(dist: JointDistribution, x: str, y: str) -> Fraction:
    return expectation(dist, {x: 1, y: 1}) - expectation(dist, {x: 1}) * expectation(dist, {y: 1})


def correlation(dist: JointDistribution, x: str, y: str) -> ExactNumber | None:
    """Pearson correlation, exactly.

    Returns a Fraction when Var(X)*Var(Y) is a perfect rational square,
    otherwise the exact value ``cov/sqrt(Var(X)*Var(Y))`` as a quadratic
    surd (which still supports exact comparisons and rational interval
    enclosures).  Zero variance has no correlation: returns None.
    """
    vx, vy = variance(dist, x), variance(dist, y)
    if vx == 0 or vy == 0:
        return None
    cov = covariance(dist, x, y)
    prod = vx * vy
    # cov / sqrt(prod), with sqrt(p/q) written as sqrt(p*q)/q so the
    # radicand is an integer: cov/sqrt(prod) = (cov/(prod*q)) * sqrt(p*q).
    return make_surd(
        Fraction(0),
        cov / prod * Fraction(1, prod.denominator),
        prod.numerator * prod.denominator,
    )


# ---------------------------------------------------------------------------
# Functions of random variables
# ---------------------------------------------------------------------------

OutcomeFunction = Callable[[Mapping[str, Fraction]], RationalLike]


def pushforward(
    dist: JointDistribution,
    fns: Sequence[tuple[str, OutcomeFunction]],
) -> JointDistribution:
    """Joint distribution of finite-valued functions of the variables.

    Each function receives the assignment {variable name: value} of an
    atom and must return a rational.  Output supports are the realized
    ranges, sorted ascending; the mass of an output atom is the exact
    sum of the input masses mapping to it.
    """
    if not fns:
        raise ValidationError("at least one output function is required")
    names = [name for name, _ in fns]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate output names: {names}")

    images: dict[Atom, tuple[Fraction, ...]] = {}
    ranges: list[set[Fraction]] = [set() for _ in fns]
    for atom in dist.mass:
        assignment = dist.assignment(atom)
        out = tuple(as_fraction(fn(assignment)) for _, fn in fns)
        images[atom] = out
        for collected, value in zip(ranges, out):
            collected.add(value)

    out_vars = tuple(
        FiniteRandomVariable(name, tuple(sorted(r))) for (name, _), r in zip(fns, ranges)
    )
    mass: dict[Atom, Fraction] = {}
    for atom, p in dist.mass.items():
        key = tuple(v.index_of(x) for v, x in zip(out_vars, images[atom]))
        mass[key] = mass.get(key, Fraction(0)) + p
    return JointDistribution(out_vars, mass)


# ---------------------------------------------------------------------------
# Events and conditional probability
# ---------------------------------------------------------------------------


def event_where(dist: JointDistribution, predicate: Callable[[Mapping[str, Fraction]], bool]) -> Event:
    """Extensional event: the set of atoms whose assignment satisfies the predicate."""
    return frozenset(a for a in dist.atom_space() if predicate(dist.assignment(a)))


def event_value(dist: JointDistribution, name: str, value: RationalLike) -> Event:
    v = as_fraction(value)
    return event_where(dist, lambda asg: asg[name] == v)


def event_product(dist: JointDistribution, names: Sequence[str], value: RationalLike) -> Event:
    v = as_fraction(value)

    def pred(asg: Mapping[str, Fraction]) -> bool:
        prod = Fraction(1)
        for n in names:
            prod *= asg[n]
        return prod == v

    return event_where(dist, pred)


def conditional_probability(dist: JointDistribution, a: Event, given: Event) -> Fraction | None:
    """P(A | B) exactly; None when P(B) = 0."""
    pb = dist.prob(given)
    if pb == 0:
        return None
    return dist.prob(a & given) / pb


# ---------------------------------------------------------------------------
# Probability-1 lemma checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of checking one conditional-certainty lemma on a distribution.

    status is "holds" or "fails" when every hypothesis is satisfied,
    "vacuous" when some hypothesis is not (with the failing hypothesis
    named in detail).  ``violating`` carries the offending atoms when a
    conclusion fails, which on correct inputs never happens: each lemma
    is a theorem, so this doubles as a property-test executor.
    """

    lemma: int
    status: str
    detail: str
    violating: Event = frozenset()

    @property
    def holds(self) -> bool:
        return self.status == "holds"


def _certainty_failure(dist: JointDistribution, target: Event, given: Event) -> Event:
    """Atoms inside `given` with positive mass escaping `target`."""
    return frozenset(
        a for a in given - target if dist.mass.get(a, Fraction(0)) > 0
    )


def check_certainty_lemma(dist: JointDistribution, lemma: int, **kw) -> LemmaReport:
    """Check one of the five conditional-certainty lemmas, exactly.

      1. P(A|B)=1 and P(BC)>0        imply P(A|BC)=1          (kw: a, b, c)
      2. P(A)>0, P(X=c|A)=P(Y=c|A)=1 imply P(X=Y|A)=1          (kw: a, x, y, c)
      3. P(A,X=c)>0, P(X=Y|A,X=c)=1  imply P(Y=c|A,X=c)=1      (kw: a, x, y, c)
      4. P(B)>0,P(C)>0,P(A|B)=P(B|C)=1 imply P(A|C)=1          (kw: a, b, c)
      5. P(A,Y=d)>0, P(A,Z=d)>0, P(X=c|A,Y=d)=1, P(Z=Y|A,Z=d)=1
         imply P(X=c|A,Z=d)=1                                  (kw: a, x, y, z, c, d)

    Events are frozensets of atoms of `dist`; variables are referenced
    by name; constants are rationals.
    """
    if lemma == 1:
        a, b, c = kw["a"], kw["b"], kw["c"]
        if conditional_probability(dist, a, b) != 1:
            return LemmaReport(1, "vacuous", "hypothesis P(A|B)=1 not satisfied")
        if dist.prob(b & c) == 0:
            return LemmaReport(1, "vacuous", "hypothesis P(BC)>0 not satisfied")
        bad = _certainty_failure(dist, a, b & c)
        return _conclude(1, "P(A|BC)=1", bad)

    if lemma == 2:
        a, x, y, c = kw["a"], kw["x"], kw["y"], as_fraction(kw["c"])
        if dist.prob(a) == 0:
            return LemmaReport(2, "vacuous", "hypothesis P(A)>0 not satisfied")
        if conditional_probability(dist, event_value(dist, x, c), a) != 1:
            return LemmaReport(2, "vacuous", "hypothesis P(X=c|A)=1 not satisfied")
        if conditional_probability(dist, event_value(dist, y, c), a) != 1:
            return LemmaReport(2, "vacuous", "hypothesis P(Y=c|A)=1 not satisfied")
        equal = event_where(dist, lambda asg: asg[x] == asg[y])
        return _conclude(2, "P(X=Y|A)=1", _certainty_failure(dist, equal, a))

    if lemma == 3:
        a, x, y, c = kw["a"], kw["x"], kw["y"], as_fraction(kw["c"])
        cond = a & event_value(dist, x, c)
        if dist.prob(cond) == 0:
            return LemmaReport(3, "vacuous", "hypothesis P(A, X=c)>0 not satisfied")
        equal = event_where(dist, lambda asg: asg[x] == asg[y])
        if conditional_probability(dist, equal, cond) != 1:
            return LemmaReport(3, "vacuous", "hypothesis P(X=Y|A, X=c)=1 not satisfied")
        target = event_value(dist, y, c)
        return _conclude(3, "P(Y=c|A, X=c)=1", _certainty_failure(dist, target, cond))

    if lemma == 4:
        a, b, c = kw["a"], kw["b"], kw["c"]
        if dist.prob(b) == 0:
            return LemmaReport(4, "vacuous", "hypothesis P(B)>0 not satisfied")
        if dist.prob(c) == 0:
            return LemmaReport(4, "vacuous", "hypothesis P(C)>0 not satisfied")
        if conditional_probability(dist, a, b) != 1:
            return LemmaReport(4, "vacuous", "hypothesis P(A|B)=1 not satisfied")
        if conditional_probability(dist, b, c) != 1:
            return LemmaReport(4, "vacuous", "hypothesis P(B|C)=1 not satisfied")
        return _conclude(4, "P(A|C)=1", _certainty_failure(dist, a, c))

    if lemma == 5:
        a = kw["a"]
        x, y, z = kw["x"], kw["y"], kw["z"]
        c, d = as_fraction(kw["c"]), as_fraction(kw["d"])
        given_y = a & event_value(dist, y, d)
        given_z = a & event_value(dist, z, d)
        if dist.prob(given_y) == 0:
            return LemmaReport(5, "vacuous", "hypothesis P(A, Y=d)>0 not satisfied")
        if dist.prob(given_z) == 0:
            return LemmaReport(5, "vacuous", "hypothesis P(A, Z=d)>0 not satisfied")
        if conditional_probability(dist, event_value(dist, x, c), given_y) != 1:
            return LemmaReport(5, "vacuous", "hypothesis P(X=c|A, Y=d)=1 not satisfied")
        equal = event_where(dist, lambda asg: asg[z] == asg[y])
        if conditional_probability(dist, equal, given_z) != 1:
            return LemmaReport(5, "vacuous", "hypothesis P(Z=Y|A, Z=d)=1 not satisfied")
        target = event_value(dist, x, c)
        return _conclude(5, "P(X=c|A, Z=d)=1", _certainty_failure(dist, target, given_z))

    raise ValidationError(f"unknown lemma id {lemma}; expected 1..5")


def _conclude(lemma: int, statement: str, violating: Event) -> LemmaReport:
    if violating:
        return LemmaReport(lemma, "fails", f"conclusion {statement} fails", violating)
    return LemmaReport(lemma, "holds", f"conclusion {statement} holds")
