"""Exact feasibility of finite moment problems.

A moment problem fixes finite supports and a list of exact product
moments; it is feasible when some joint distribution over the atom
lattice matches every moment.  Feasibility is a linear program over
atom probabilities (nonnegativity, total mass one, one linear equation
per moment), decided here in exact rational arithmetic.

Two independent decision paths are provided and cross-checked in the
test suite:

* :func:`decide` - phase-1 simplex (Bland's rule), guided in floating
  point and settled by an exact basis solve (:mod:`jointfeas.simplex`).
  Returns a witness distribution or a Farkas certificate.
* :func:`brute_force_oracle` - dual-cone ray enumeration
  (double description) over the deduplicated atom moment vectors.

Both produce results that verify by construction: witnesses satisfy
every constraint exactly and certificates pass
:func:`verify_certificate`.  Those two gates are plain rational
arithmetic on the problem and share no code with either path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

from .algebraic import as_fraction
from .errors import ConstraintMismatchError, SizeCapError, ValidationError
from .geometry import cone_membership
from .linalg import solve
from .probability import Atom, FiniteRandomVariable, JointDistribution
from .simplex import solve_equality_feasibility

__all__ = [
    "DEFAULT_ATOM_CAP",
    "ORACLE_ATOM_CAP",
    "FeasibilityResult",
    "MomentConstraint",
    "MomentProblem",
    "ReduceThenTestResult",
    "brute_force_oracle",
    "decide",
    "reduce_then_test",
    "verify_certificate",
]

DEFAULT_ATOM_CAP = 1 << 20
ORACLE_ATOM_CAP = 4096

_ZERO = Fraction(0)
_ONE = Fraction(1)


_RELATIONS = ("==", "<=", ">=")


@dataclass(frozen=True)
class MomentConstraint:
    """One exact product-moment condition E(prod X_i^k_i) <relation> target.

    The relation is ``==`` for the usual exact moment; ``<=`` and ``>=``
    bound a moment instead (handled by a slack column in the LP), an
    extension unused by the bundled corpus.
    """

    exponents: tuple[tuple[str, int], ...]  # sorted by variable name
    target: Fraction
    relation: str = "=="

    def __post_init__(self) -> None:
        if not self.exponents:
            raise ValidationError("constraint needs at least one exponent")
        names = [n for n, _ in self.exponents]
        if len(set(names)) != len(names):
            raise ValidationError(f"repeated variable in exponent map: {names}")
        for name, k in self.exponents:
            if not isinstance(k, int) or k <= 0:
                raise ValidationError(f"exponent for {name} must be a positive integer")
        if self.relation not in _RELATIONS:
            raise ValidationError(f"relation must be one of {_RELATIONS}")
        object.__setattr__(self, "exponents", tuple(sorted(self.exponents)))
        object.__setattr__(self, "target", as_fraction(self.target))

    @classmethod
    def of(cls, exponents: Mapping[str, int], target, relation: str = "==") -> "MomentConstraint":
        return cls(tuple(sorted(exponents.items())), as_fraction(target), relation)

    @property
    def exponent_map(self) -> dict[str, int]:
        return dict(self.exponents)

    def describe(self) -> str:
        mono = "*".join(f"{n}^{k}" if k > 1 else n for n, k in self.exponents)
        rel = "=" if self.relation == "==" else self.relation
        return f"E({mono}) {rel} {self.target}"


@dataclass(frozen=True)
class MomentProblem:
    """Finite supports plus exact moment constraints (the given data)."""

    variables: tuple[FiniteRandomVariable, ...]
    constraints: tuple[MomentConstraint, ...]
    label: str = ""
    allow_higher_order: bool = False

    def __post_init__(self) -> None:
        names = [v.name for v in self.variables]
        if not names:
            raise ValidationError("a moment problem needs at least one variable")
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate variable names: {names}")
        seen: set[tuple] = set()
        for c in self.constraints:
            for n, k in c.exponents:
                if n not in names:
                    raise ConstraintMismatchError(f"constraint references unknown variable {n!r}")
                if k > 2 and not self.allow_higher_order:
                    raise ValidationError(
                        f"exponent {k} on {n} exceeds 2; set allow_higher_order for such problems"
                    )
            key = (c.exponents, c.relation)
            if key in seen:
                raise ValidationError(f"duplicate constraint on exponents {c.exponents}")
            seen.add(key)
        # name -> position, built once: monomial_value is the hot lookup.
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable(self, name: str) -> FiniteRandomVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ConstraintMismatchError(f"unknown variable {name!r}")

    def atom_count(self) -> int:
        count = 1
        for v in self.variables:
            count *= len(v.support)
        return count

    def atom_space(self):
        return itertools.product(*(range(len(v.support)) for v in self.variables))

    def monomial_value(self, constraint: MomentConstraint, atom: Atom) -> Fraction:
        value = _ONE
        for name, k in constraint.exponents:
            i = self._index[name]
            value *= self.variables[i].support[atom[i]] ** k
        return value

    def monomial_range(self, constraint: MomentConstraint) -> tuple[Fraction, Fraction]:
        """Sharp [min, max] of the constraint's monomial over the lattice.

        Computed variable by variable: extremes of a product of values
        drawn from finite sets are attained at per-set extremes.
        """
        lo, hi = _ONE, _ONE
        for name, k in constraint.exponents:
            values = [v**k for v in self.variable(name).support]
            vlo, vhi = min(values), max(values)
            candidates = [lo * vlo, lo * vhi, hi * vlo, hi * vhi]
            lo, hi = min(candidates), max(candidates)
        return lo, hi


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict plus the object that proves it.

    feasible  -> ``witness`` is a distribution matching every moment
    infeasible-> ``certificate`` is a rational vector over the
                 constraint rows plus the normalization row (last
                 entry): the induced functional is >= 0 on every atom
                 while its value on the targets is < 0.
    """

    verdict: str  # "feasible" | "infeasible"
    witness: JointDistribution | None
    certificate: tuple[Fraction, ...] | None
    method: str
    detail: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


def _constraint_rows(
    problem: MomentProblem, atoms: list[Atom], with_slacks: bool = False
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """LP rows: one per constraint, then the normalization row.

    With ``with_slacks`` every inequality constraint gets one extra
    nonnegative column (+1 for <=, -1 for >=) turning the system into
    pure equalities; the normalization row has zeros there since slack
    is not probability mass.
    """
    rows = []
    rhs = []
    # Precompute per-variable powered supports once; the inner loop is hot.
    index = {v.name: i for i, v in enumerate(problem.variables)}
    slack_owners = [i for i, c in enumerate(problem.constraints) if c.relation != "=="]
    for ci, c in enumerate(problem.constraints):
        powered = [(index[n], [val**k for val in problem.variables[index[n]].support]) for n, k in c.exponents]
        row = []
        for atom in atoms:
            value = _ONE
            for i, table in powered:
                value *= table[atom[i]]
            row.append(value)
        if with_slacks:
            for owner in slack_owners:
                if owner != ci:
                    row.append(_ZERO)
                else:
                    row.append(_ONE if c.relation == "<=" else Fraction(-1))
        rows.append(row)
        rhs.append(c.target)
    rows.append([_ONE] * len(atoms) + ([_ZERO] * len(slack_owners) if with_slacks else []))
    rhs.append(_ONE)
    return rows, rhs


def _satisfies(value: Fraction, constraint: MomentConstraint) -> bool:
    if constraint.relation == "<=":
        return value <= constraint.target
    if constraint.relation == ">=":
        return value >= constraint.target
    return value == constraint.target


def _witness_from_masses(
    problem: MomentProblem, atoms: list[Atom], masses: Sequence[Fraction]
) -> JointDistribution:
    mass = {atom: m for atom, m in zip(atoms, masses) if m > 0}
    witness = JointDistribution(problem.variables, mass)
    for c in problem.constraints:  # soundness: exact recheck of every moment
        got = sum(
            (p * problem.monomial_value(c, atom) for atom, p in witness.mass.items()),
            _ZERO,
        )
        if not _satisfies(got, c):
            raise AssertionError(f"witness violates {c.describe()}: got {got}")
    return witness


def _range_certificate(
    problem: MomentProblem, idx: int, lo: Fraction, hi: Fraction
) -> tuple[Fraction, ...]:
    """Certificate for a target outside the achievable monomial range."""
    m = len(problem.constraints)
    cert = [_ZERO] * (m + 1)
    target = problem.constraints[idx].target
    if target > hi:
        cert[idx] = Fraction(-1)
        cert[m] = hi
    else:
        cert[idx] = _ONE
        cert[m] = -lo
    return tuple(cert)


def _range_violated(constraint: MomentConstraint, lo: Fraction, hi: Fraction) -> bool:
    """Is the constraint unsatisfiable by achievable monomial values alone?

    A <= bound only fails when even the smallest achievable value is too
    big; a >= bound when even the largest is too small.
    """
    if constraint.relation == "<=":
        return constraint.target < lo
    if constraint.relation == ">=":
        return constraint.target > hi
    return not lo <= constraint.target <= hi


def decide(problem: MomentProblem, *, atom_cap: int = DEFAULT_ATOM_CAP) -> FeasibilityResult:
    """Exact feasibility verdict with witness or verified certificate.

    Deterministic for a fixed problem: atoms are enumerated in
    lexicographic index order and the simplex uses Bland's rule.  Float
    arithmetic only picks the simplex's final basis; the verdict comes
    from an exact solve on that basis (or from the exact Bland loop when
    the basis proves nothing) and then passes the exact witness recheck
    or :func:`verify_certificate`.
    """
    count = problem.atom_count()
    if count > atom_cap:
        raise SizeCapError(
            f"atom lattice has {count} points, above the cap {atom_cap}; "
            "eliminate variables or raise the cap"
        )

    for idx, c in enumerate(problem.constraints):
        lo, hi = problem.monomial_range(c)
        if _range_violated(c, lo, hi):
            cert = _range_certificate(problem, idx, lo, hi)
            if not verify_certificate(problem, cert):  # soundness gate, never expected
                raise AssertionError("range check produced an invalid infeasibility certificate")
            return FeasibilityResult(
                "infeasible",
                None,
                cert,
                "range-check",
                {"constraint": c.describe(), "achievable": (lo, hi)},
            )

    atoms = list(problem.atom_space())
    rows, rhs = _constraint_rows(problem, atoms, with_slacks=True)
    lp = solve_equality_feasibility(rows, rhs)
    if lp.feasible:
        if lp.solution is None:
            raise AssertionError("simplex reported feasible without a solution")
        witness = _witness_from_masses(problem, atoms, lp.solution[: len(atoms)])
        return FeasibilityResult("feasible", witness, None, "simplex", {"pivots": lp.pivots})
    if lp.farkas is None:
        raise AssertionError("simplex reported infeasible without a Farkas vector")
    cert = tuple(lp.farkas)
    if not verify_certificate(problem, cert):  # soundness gate, never expected
        raise AssertionError("simplex produced an invalid infeasibility certificate")
    return FeasibilityResult("infeasible", None, cert, "simplex", {"pivots": lp.pivots})


def verify_certificate(problem: MomentProblem, certificate: Sequence[Fraction]) -> bool:
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
    for atom in problem.atom_space():
        value = cert[m]
        for c, w in zip(problem.constraints, cert):
            if w:
                value += w * problem.monomial_value(c, atom)
        if value < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Independent oracle: dual-cone ray enumeration
# ---------------------------------------------------------------------------


def brute_force_oracle(
    problem: MomentProblem, *, atom_cap: int = ORACLE_ATOM_CAP
) -> FeasibilityResult:
    """Second opinion on :func:`decide`, by a different exact method.

    Feasibility holds exactly when the homogenized target vector lies in
    the convex cone of the atoms' homogenized moment vectors; that
    membership is decided by enumerating the dual cone's extreme rays.
    It shares no pivoting with the simplex; both use the exact kernel in
    :mod:`jointfeas.linalg`, so the witness recheck and
    :func:`verify_certificate`, which use neither, are the independent
    gates.
    """
    count = problem.atom_count()
    if count > atom_cap:
        raise SizeCapError(f"oracle cap is {atom_cap} atoms, problem has {count}")

    atoms = list(problem.atom_space())
    by_vector: dict[tuple[Fraction, ...], Atom] = {}
    for atom in atoms:
        vec = (_ONE,) + tuple(problem.monomial_value(c, atom) for c in problem.constraints)
        by_vector.setdefault(vec, atom)  # first atom represents its moment class
    generators = list(by_vector.keys())
    representatives: list[Atom | None] = list(by_vector.values())
    m = len(problem.constraints)
    for i, c in enumerate(problem.constraints):
        if c.relation == "==":
            continue
        # slack direction for a bounded moment; not probability mass
        slack = [_ZERO] * (m + 1)
        slack[i + 1] = _ONE if c.relation == "<=" else Fraction(-1)
        generators.append(tuple(slack))
        representatives.append(None)
    target = (_ONE,) + tuple(c.target for c in problem.constraints)

    membership = cone_membership(generators, target)
    if membership.member:
        if membership.combination is None:
            raise AssertionError("cone oracle reported membership without a combination")
        masses: dict[Atom, Fraction] = {}
        for gen_idx, weight in membership.combination.items():
            rep = representatives[gen_idx]
            if weight > 0 and rep is not None:
                masses[rep] = weight
        witness = JointDistribution(problem.variables, masses)
        for c in problem.constraints:
            got = sum(
                (p * problem.monomial_value(c, atom) for atom, p in witness.mass.items()),
                _ZERO,
            )
            if not _satisfies(got, c):
                raise AssertionError(f"oracle witness violates {c.describe()}")
        return FeasibilityResult("feasible", witness, None, "cone-rays", {})
    if membership.separator is None:
        raise AssertionError("cone oracle reported non-membership without a separator")
    # Separator coordinates are (normalization, constraints...); the
    # certificate convention puts normalization last.
    sep = membership.separator
    cert = tuple(sep[1:]) + (sep[0],)
    if not verify_certificate(problem, cert):
        raise AssertionError("cone oracle produced an invalid certificate")
    return FeasibilityResult("infeasible", None, cert, "cone-rays", {})


# ---------------------------------------------------------------------------
# Reduce-to-two-values, then test
# ---------------------------------------------------------------------------

SignMap = Union[Mapping[Fraction, int], Callable[[Fraction], int]]


@dataclass(frozen=True)
class ReduceThenTestResult:
    """Outcome of mapping four observables to +-1 values and testing.

    verdict:
      "original_infeasible" - the induced two-valued problem has no
          joint distribution, hence neither has the original.
      "inconclusive"        - the induced problem is feasible; the
          reduction argument is one-directional so nothing follows.
      "underdetermined"     - some required induced moment is not a
          rational combination of the given moments.
    """

    verdict: str
    mapped_problem: MomentProblem | None
    mapped_result: FeasibilityResult | None
    missing: tuple[str, ...] = ()
    derived: dict = field(default_factory=dict)


def _as_table(variable: FiniteRandomVariable, signmap: SignMap) -> dict[Fraction, int]:
    if callable(signmap):
        table = {v: signmap(v) for v in variable.support}
    else:
        table = {as_fraction(k): int(s) for k, s in signmap.items()}
        missing = [v for v in variable.support if v not in table]
        if missing:
            raise ValidationError(
                f"sign map for {variable.name} misses support values {missing}"
            )
    for v, s in table.items():
        if s not in (-1, 1):
            raise ValidationError(f"sign map for {variable.name} maps {v} to {s}, not +-1")
    return table


def reduce_then_test(
    problem: MomentProblem, signmaps: Mapping[str, SignMap]
) -> ReduceThenTestResult:
    """Map each of four observables through a +-1 valued function, then test.

    If the induced two-valued moment problem (means plus the product
    moments of every originally constrained pair) is infeasible, the
    original problem is infeasible as well; a feasible induced problem
    is inconclusive for the original.
    """
    if len(problem.variables) != 4:
        raise ValidationError("reduce_then_test expects exactly four variables")
    if any(c.relation != "==" for c in problem.constraints):
        raise ValidationError(
            "reduce_then_test needs exact moments; bounded moments do not pin "
            "the induced ones"
        )
    if set(signmaps) != set(problem.names):
        raise ValidationError(
            f"sign maps must cover exactly the variables {problem.names}"
        )
    tables = {v.name: _as_table(v, signmaps[v.name]) for v in problem.variables}

    atoms = list(problem.atom_space())
    rows, rhs = _constraint_rows(problem, atoms)  # includes all-ones row, rhs 1

    index = {v.name: i for i, v in enumerate(problem.variables)}

    def lifted(names: Sequence[str]) -> list[Fraction]:
        out = []
        for atom in atoms:
            value = _ONE
            for n in names:
                v = problem.variables[index[n]].support[atom[index[n]]]
                value *= tables[n][v]
            out.append(Fraction(value))
        return out

    constrained_pairs: list[tuple[str, str]] = []
    for c in problem.constraints:
        touched = [n for n, _ in c.exponents]
        for a, b in itertools.combinations(sorted(touched), 2):
            if (a, b) not in constrained_pairs:
                constrained_pairs.append((a, b))
    wanted = [(f"E(f({name}))", lifted([name])) for name in problem.names]
    wanted += [(f"E(f({a})f({b}))", lifted([a, b])) for a, b in constrained_pairs]

    # The rows span the determined linear functionals on atom masses (the
    # constraint monomials and the all-ones row).  When g = rows^T . lam,
    # E(g) = lam . rhs for every distribution meeting the constraints;
    # when g is outside their span, E(g) is not determined.
    per_atom = list(zip(*rows))  # one equation rows^T . lam = g per atom
    solutions = solve(per_atom, [g for _, g in wanted])
    derived: dict[str, Fraction] = {}
    missing: list[str] = []
    for (label, _), lam in zip(wanted, solutions):
        if lam is None:
            missing.append(label)
        else:
            derived[label] = sum((l * b for l, b in zip(lam, rhs)), _ZERO)

    if missing:
        return ReduceThenTestResult("underdetermined", None, None, tuple(missing), derived)

    mapped_vars = tuple(
        FiniteRandomVariable(v.name, (Fraction(-1), Fraction(1))) for v in problem.variables
    )
    constraints = [
        MomentConstraint.of({name: 1}, derived[f"E(f({name}))"]) for name in problem.names
    ]
    constraints += [
        MomentConstraint.of({a: 1, b: 1}, derived[f"E(f({a})f({b}))"])
        for a, b in constrained_pairs
    ]
    mapped = MomentProblem(
        mapped_vars, tuple(constraints), label=f"{problem.label} (sign-reduced)".strip()
    )
    result = decide(mapped)
    verdict = "inconclusive" if result.feasible else "original_infeasible"
    return ReduceThenTestResult(verdict, mapped, result, (), derived)
