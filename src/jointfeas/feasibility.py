"""Exact feasibility of finite moment problems.

A moment problem fixes finite supports and a list of exact product
moments; it is feasible when some joint distribution over the atom
lattice matches every moment.  Feasibility is a linear program over
atom probabilities (nonnegativity, total mass one, one linear equation
per moment), decided here in exact rational arithmetic.

Two independent decision paths are provided and cross-checked in the
test suite:

* :func:`decide` - phase-1 simplex (Bland's rule) on an exact
  fraction-free integer tableau, or, for LPs too large for int64, guided
  in floating point (Dantzig's rule alone, under a pivot cap past which
  the exact loop decides) and settled by an exact basis solve
  (:mod:`jointfeas.simplex`).  Returns a witness distribution or a
  Farkas certificate.
* :func:`brute_force_oracle` - dual-cone ray enumeration
  (double description) over the deduplicated atom moment vectors.

Both paths, and :func:`reduce_then_test`, read their rows from one
integer row builder, :func:`_build_rows` (the oracle and the reduction
through :func:`_constraint_rows`): each support over its common
denominator, each moment row a numpy product of numerator tables
over the lattice, every row over one common denominator, in int64 when
a bound computed first fits and in Python ints otherwise.  The rows
depend only on the problem's structure (its supports, and each
constraint's variables, exponents and relation), never on its targets,
so they are built once per structure and kept, read-only, in a bounded
cache; a matrix above a fixed cell budget is built and used but not
kept.  The simplex keeps what it reads of a read-only matrix (its peak,
column norms and int64 block) for as long as the matrix lives, so a
sweep over one structure pays only per-target work there.  The only
source of a monomial's range is a table built once per structure too
(:func:`_range_table`), from the integer supports and exponents alone;
:func:`decide` computes the structure key once and reads both the range
table and the row cache with it, the range table first, so a target out
of range is refuted before any row is built.  The
cone oracle's dual description is cached the same way, per generator
set (:func:`jointfeas.geometry.dual_rays`).  Every decider hands its
proof (masses by LP column, or a certificate) to one finisher,
:func:`_proved`, which runs an exact gate in :mod:`jointfeas.check` that
shares no code with the builder: a witness has its atoms, its masses
and every moment rechecked, and is then wrapped in its distribution
with no second validation; a certificate passes :func:`verify_certificate`
(re-exported here), which evaluates its functional over the variables
it touches.  A certificate in a returned result has passed that gate,
so callers need not run it again.
"""

from __future__ import annotations

import functools
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import check
from .algebraic import as_fraction, exact_text
from .check import verify_certificate
from .errors import ConstraintMismatchError, SizeCapError, ValidationError
from .geometry import cone_membership
from .linalg import solve, width
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


# Slotted: problems hold many of these, so no per-instance dict.
@dataclass(frozen=True, slots=True)
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
            if isinstance(k, bool) or not isinstance(k, int) or k <= 0:
                raise ValidationError(f"exponent for {name} must be a positive integer")
        if self.relation not in _RELATIONS:
            raise ValidationError(f"relation must be one of {_RELATIONS}")
        object.__setattr__(self, "exponents", tuple(sorted(self.exponents)))
        object.__setattr__(self, "target", as_fraction(self.target))

    @classmethod
    def of(cls, exponents: Mapping[str, int], target, relation: str = "==") -> "MomentConstraint":
        return cls(tuple(sorted(exponents.items())), target, relation)

    @property
    def exponent_map(self) -> dict[str, int]:
        return dict(self.exponents)

    def describe(self) -> str:
        mono = "*".join(f"{n}^{k}" if k > 1 else n for n, k in self.exponents)
        rel = "=" if self.relation == "==" else self.relation
        return f"E({mono}) {rel} {exact_text(self.target)}"


def _check_moment_problem(
    names: Sequence[str],
    constraints: Sequence[tuple[Sequence[tuple[str, int]], str]],
    allow_higher_order: bool,
) -> None:
    """Check variable names, and moment constraints given as ``(exponents, relation)``.

    ``exponents`` are (name, positive exponent) pairs sorted by name.
    Each failure is a :class:`ValidationError` whose ``path`` locates it:
    ``variables[i].name`` for a repeated name,
    ``constraints[i].exponents.<name>`` for an unknown variable (a
    :class:`ConstraintMismatchError`) or an exponent above 2 without
    ``allow_higher_order``, and ``constraints[i]`` for a constraint whose
    exponents and relation repeat an earlier one's.
    """
    known = set(names)
    if len(known) != len(names):
        i = next(i for i, n in enumerate(names) if n in names[:i])
        raise ValidationError(f"duplicate variable name {names[i]!r}", f"variables[{i}].name")
    seen: set[tuple] = set()
    for i, (exponents, relation) in enumerate(constraints):
        for n, k in exponents:
            if n not in known:
                raise ConstraintMismatchError(
                    f"constraint references unknown variable {n!r}", f"constraints[{i}].exponents.{n}"
                )
            if k > 2 and not allow_higher_order:
                raise ValidationError(
                    f"exponent {k} on {n} exceeds 2; set allow_higher_order for such problems",
                    f"constraints[{i}].exponents.{n}",
                )
        key = (tuple(exponents), relation)
        if key in seen:
            raise ValidationError(f"duplicate constraint on exponents {key[0]}", f"constraints[{i}]")
        seen.add(key)


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
        _check_moment_problem(
            names, [(c.exponents, c.relation) for c in self.constraints], self.allow_higher_order
        )
        # name -> position, built once: every name lookup goes through it.
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})
        # Per variable, (D_v, numerators), built once for the range check
        # and the row builder.
        supports = tuple(_integer_support(v.support) for v in self.variables)
        object.__setattr__(self, "_supports", supports)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def variable(self, name: str) -> FiniteRandomVariable:
        return self.variables[self._position(name)]

    def _position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ConstraintMismatchError(f"unknown variable {name!r}") from None

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
            i = self._position(name)
            value *= self.variables[i].support[atom[i]] ** k
        return value


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


# Problems built over equal supports share one table; the tables are
# immutable, and the cache is bounded.
@functools.lru_cache(maxsize=256)
def _integer_support(support: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """The support's common denominator and the support values times it."""
    den = lcm(*(x.denominator for x in support))
    return den, tuple(x.numerator * (den // x.denominator) for x in support)


def _monomial_range(supports: Sequence[tuple[int, Sequence[int]]], exponents) -> tuple[int, int, int]:
    """``(lo, hi, den)``: the sharp range of prod X_i^k_i is [lo / den, hi / den].

    ``exponents`` holds (variable position, k) pairs, and ``supports``
    each variable's integer support (:func:`_integer_support`), so the
    monomial is an integer product of numerators raised to their
    exponents over the one denominator ``den = prod(D_v ** k)``.
    Extremes of a product of values drawn from finite sets are attained
    at per-set extremes, and dividing by a positive denominator keeps
    the order.
    """
    lo = hi = den = 1
    for i, k in exponents:
        d, numerators = supports[i]
        values = [x**k for x in numerators]
        vlo, vhi = min(values), max(values)
        candidates = [lo * vlo, lo * vhi, hi * vlo, hi * vhi]
        lo, hi = min(candidates), max(candidates)
        den *= d**k
    return lo, hi, den


# Sweeps decide many targets over one structure; the ranges depend on
# the structure alone, so they are computed once per structure.
@functools.lru_cache(maxsize=256)
def _range_table(structure: tuple) -> tuple[tuple[int, int, int], ...]:
    """Per constraint of :func:`_row_structure`, its :func:`_monomial_range`."""
    supports, constraints = structure
    return tuple(_monomial_range(supports, exponents) for exponents, _ in constraints)


def _lattice_product(
    shape: tuple[int, ...], factors: Sequence[tuple[int, Sequence[int]]], dtype
) -> np.ndarray:
    """Per atom, in ``atom_space`` order, the product of ``table[atom[position]]``.

    A factor is a variable position and a table of integers indexed by
    support position.  The lattice is one numpy broadcast in C order,
    which is the order of :meth:`MomentProblem.atom_space`.
    """
    out = np.ones((1,) * len(shape), dtype)
    for position, table in factors:
        axes = [1] * len(shape)
        axes[position] = shape[position]
        out = out * np.array(table, dtype).reshape(axes)
    return np.broadcast_to(out, shape).reshape(-1)


def _row_structure(problem: MomentProblem) -> tuple:
    """Everything the LP rows depend on, and nothing the targets do.

    The integer supports, then per constraint its (variable position,
    exponent) pairs and its relation.  Computed per call, never stored
    on the problem: problems are built by the thousand and most are
    solved once.
    """
    index = problem._index
    return problem._supports, tuple(
        (tuple((index[name], k) for name, k in c.exponents), c.relation) for c in problem.constraints
    )


def _build_rows(structure: tuple) -> tuple[np.ndarray, int]:
    """``(matrix, den)`` of :func:`_constraint_rows`, from the structure alone.

    The matrix is read-only, since a cached one is shared by every call.
    """
    supports, constraints = structure
    shape = tuple(len(numerators) for _, numerators in supports)
    count = prod(shape)
    dens = [prod(supports[i][0] ** k for i, k in exponents) for exponents, _ in constraints]
    den = lcm(*dens)
    specs = []
    bound = den
    for (exponents, _), d in zip(constraints, dens):
        factors, top, scale = [], 1, den // d  # the row's scale rides on its first table
        for i, k in exponents:
            numerators = supports[i][1]
            factors.append((i, [scale * x**k for x in numerators]))
            top *= scale * max(1, *(abs(x) for x in numerators)) ** k  # bounds partial products too
            scale = 1
        specs.append(factors)
        bound = max(bound, top)
    dtype = width(bound)

    owners = [i for i, (_, relation) in enumerate(constraints) if relation != "=="]
    matrix = np.zeros((len(specs) + 1, count + len(owners)), dtype)
    for i, factors in enumerate(specs):
        matrix[i, :count] = _lattice_product(shape, factors, dtype)
    matrix[-1, :count] = den
    for j, i in enumerate(owners, count):
        matrix[i, j] = den if constraints[i][1] == "<=" else -den
    matrix.setflags(write=False)
    return matrix, den


# Sweeps solve many targets over one structure, so rows are built once
# per structure.  A matrix above the cell budget is built and used but
# not kept: at 16 +-1 variables with pair moments one is about 72 MB.
_ROW_CACHE_CELLS = 1 << 15


class _RowCache:
    """:func:`_build_rows` per structure, bounded by the cells it keeps.

    The kept matrices hold at most 64 * ``_ROW_CACHE_CELLS`` cells in
    all; past that the least recently used go first.  Bounding cells
    rather than entries lets a pass over many small structures (a
    ladder of lattices, the subsets of a GHZ system) stay cached.  The
    bound counts only the matrices: while a kept m x n matrix lives, the
    simplex keeps its template too, and once a target passes the int64
    bound that holds an (m + 1) x (n + m + 1) int64 block (on CHSH, 260
    cells beside the matrix's 144).
    """

    def __init__(self) -> None:
        self.kept: OrderedDict[tuple, tuple[np.ndarray, int]] = OrderedDict()
        self.cells = 0

    def __call__(self, structure: tuple) -> tuple[np.ndarray, int]:
        rows = self.kept.get(structure)
        if rows is not None:
            self.kept.move_to_end(structure)
            return rows
        rows = _build_rows(structure)
        size = rows[0].size
        if size <= _ROW_CACHE_CELLS:
            self.kept[structure] = rows
            self.cells += size
            while self.cells > 64 * _ROW_CACHE_CELLS:
                self.cells -= self.kept.popitem(last=False)[1][0].size
        return rows

    def clear(self) -> None:
        self.kept.clear()
        self.cells = 0


_cached_rows = _RowCache()


def _constraint_rows(problem: MomentProblem) -> tuple[np.ndarray, int, list[Fraction]]:
    """LP rows in integers: one per constraint, then the normalization row.

    Returns ``(matrix, den, rhs)``: the rows over the atoms, in
    ``atom_space`` order, are ``matrix / den``.  Each support is put over
    its common denominator D_v, so a constraint's monomial is a product
    of support numerators raised to their exponents, over
    ``prod(D_v ** k)``; den is the lcm of those denominators, and each
    row's products are scaled up to it.  The normalization row is den
    everywhere.  The matrix is int64 when a bound on every scaled entry,
    computed first, fits; otherwise it holds Python ints.

    After the atoms, every inequality constraint gets one nonnegative
    slack column (+den for <=, -den for >=) turning the system into pure
    equalities; the normalization row has zeros there since slack is
    not probability mass.

    ``matrix`` and ``den`` depend only on :func:`_row_structure`, and
    come from a bounded cache keyed on it: the matrix is read-only, and
    ``rhs`` is a fresh list.
    """
    matrix, den = _cached_rows(_row_structure(problem))
    return matrix, den, [c.target for c in problem.constraints] + [_ONE]


def _atoms(shape: tuple[int, ...], indices: Sequence[int]) -> list[Atom]:
    """The atoms at these positions of ``atom_space`` order, in one unravel."""
    axes = [axis.tolist() for axis in np.unravel_index(np.array(indices, np.intp), shape)]
    return list(zip(*axes))


def _range_side(constraint: MomentConstraint, lo: int, hi: int, den: int) -> str | None:
    """The side of the achievable range that refutes the target: ``"above"``, ``"below"`` or None.

    The achievable values are [lo / den, hi / den] (den > 0); the target
    is compared with each bound once, by cross-multiplying.  A <= bound
    only fails when even the smallest achievable value is too big; a >=
    bound when even the largest is too small.
    """
    target = constraint.target
    scaled, q = target.numerator * den, target.denominator
    if constraint.relation != "<=" and scaled > hi * q:
        return "above"
    if constraint.relation != ">=" and scaled < lo * q:
        return "below"
    return None


# Each method's name in the soundness gate's message.
_GATES = {"range-check": "range check", "simplex": "simplex", "cone-rays": "cone oracle"}


def _proved(problem: MomentProblem, method: str, detail: dict, *, masses=None, certificate=None) -> FeasibilityResult:
    """The verdict a decider's proof gives, once its gate in :mod:`jointfeas.check` accepts it.

    ``masses`` maps LP columns (:func:`_constraint_rows` order) to
    positive masses; slack columns are dropped.  ``certificate`` holds
    one coefficient per constraint, then the normalization row's.  A
    witness is validated by its gate alone: the distribution is built
    with ``JointDistribution._trusted``, which does not check it again.
    """
    gate = _GATES[method]
    if masses is not None:
        shape = tuple(len(v.support) for v in problem.variables)
        count = prod(shape)
        columns = [j for j in masses if j < count]
        mass = dict(zip(_atoms(shape, columns), [masses[j] for j in columns]))
        check._checked_witness(problem, mass)
        # The gate has checked all that JointDistribution's constructor would.
        witness = JointDistribution._trusted(problem.variables, mass)
        return FeasibilityResult("feasible", witness, None, method, detail)
    if certificate is None:
        raise AssertionError(f"{gate} returned neither a witness nor a certificate")
    cert = check._checked_certificate(problem, tuple(certificate), gate)
    return FeasibilityResult("infeasible", None, cert, method, detail)


def _check_atom_cap(atom_cap: int, path: str | None = None) -> None:
    """The one atom-cap rule; ``path`` names the field or flag that gave it."""
    if isinstance(atom_cap, bool) or not isinstance(atom_cap, int) or atom_cap <= 0:
        raise ValidationError(f"atom_cap must be a positive integer, got {atom_cap!r}", path)


def decide(problem: MomentProblem, *, atom_cap: int = DEFAULT_ATOM_CAP) -> FeasibilityResult:
    """Exact feasibility verdict with witness or verified certificate.

    Deterministic for a fixed problem: atoms are enumerated in
    lexicographic index order and every pivoting rule is deterministic.
    The problem's :func:`_row_structure` is computed once and keys both
    the range table and the row cache.  First each constraint's target is compared, once
    per bound, with its monomial's integer range from :func:`_range_table`
    (:func:`_range_side`); a target out of range is proved infeasible by
    a two-coefficient certificate (-1 and hi above the range, +1 and -lo
    below it) without building any row.  Otherwise the rows come from the
    row cache and the simplex decides by Bland's rule on an exact
    fraction-free integer tableau, in int64 when a bound proves that
    safe; above the bound, a
    float guide priced by Dantzig's rule alone only picks the final
    basis, whose value column and cost row are solved exactly in the same
    integer scaling (or the exact loop reruns on Python ints when the
    guide reaches its pivot cap or its basis proves nothing).  On every
    path one pair of exact readers turns the final column or row into the
    solution or Farkas vector, and :func:`_proved` passes it through the
    exact witness recheck or :func:`verify_certificate`; a returned
    certificate has passed it.
    """
    _check_atom_cap(atom_cap)
    count = problem.atom_count()
    if count > atom_cap:
        raise SizeCapError(
            f"atom lattice has {count} points, above the cap {atom_cap}; "
            "eliminate variables or raise the cap"
        )

    structure = _row_structure(problem)
    for idx, (c, (lo, hi, den)) in enumerate(zip(problem.constraints, _range_table(structure))):
        side = _range_side(c, lo, hi, den)
        if side is not None:
            lo, hi = Fraction(lo, den), Fraction(hi, den)
            # Above: hi - monomial >= 0 on every atom; below: monomial - lo.
            m = len(problem.constraints)
            certificate = [_ZERO] * (m + 1)
            certificate[idx], certificate[m] = (Fraction(-1), hi) if side == "above" else (_ONE, -lo)
            detail = {"constraint": c.describe(), "achievable": (lo, hi)}
            return _proved(problem, "range-check", detail, certificate=certificate)

    matrix, den = _cached_rows(structure)
    rhs = [c.target for c in problem.constraints] + [_ONE]
    lp = solve_equality_feasibility(matrix, rhs, den)
    return _proved(problem, "simplex", {"pivots": lp.pivots}, masses=lp.solution, certificate=lp.farkas)


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
    It shares no pivoting with the simplex; both read their rows from
    the one row cache and use the exact kernel in
    :mod:`jointfeas.linalg`, so the gates of :mod:`jointfeas.check`,
    which use neither, are the independent ones.
    """
    _check_atom_cap(atom_cap)
    count = problem.atom_count()
    if count > atom_cap:
        raise SizeCapError(f"oracle cap is {atom_cap} atoms, problem has {count}")

    # Generators are the integer LP columns, in row order: den times each
    # moment vector, normalization last.  With the target den times the
    # right-hand side, the weights are atom masses and a separator is a
    # certificate.  Atoms sharing a column merge into the first of them.
    matrix, den, rhs = _constraint_rows(problem)
    representatives: dict[tuple[int, ...], int] = {}
    for j, column in enumerate(zip(*matrix.tolist())):
        representatives.setdefault(column, j)
    membership = cone_membership(list(representatives), [den * x for x in rhs])
    column_of, combination = list(representatives.values()), membership.combination
    masses = None if combination is None else {column_of[g]: w for g, w in combination.items()}
    separator = None if membership.separator is None else tuple(map(Fraction, membership.separator))
    return _proved(problem, "cone-rays", {}, masses=masses, certificate=separator)


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
                f"sign map for {variable.name} misses support values {', '.join(map(exact_text, missing))}"
            )
    for v, s in table.items():
        if s not in (-1, 1):
            raise ValidationError(f"sign map for {variable.name} maps {exact_text(v)} to {s}, not +-1")
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

    matrix, den, rhs = _constraint_rows(problem)  # normalization row last; == only, so no slacks
    shape = tuple(len(v.support) for v in problem.variables)

    def lifted(names: Sequence[str]) -> list[int]:
        factors = [(problem._index[n], [tables[n][x] for x in problem.variable(n).support]) for n in names]
        return _lattice_product(shape, factors, np.int64).tolist()

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
    # when g is outside their span, E(g) is not determined.  The rows are
    # matrix / den, so the integer system is solved for mu = lam / den.
    per_atom = matrix.T.tolist()  # one equation matrix^T . mu = g per atom
    solutions = solve(per_atom, [g for _, g in wanted])
    derived: dict[str, Fraction] = {}
    missing: list[str] = []
    for (label, _), mu in zip(wanted, solutions):
        if mu is None:
            missing.append(label)
        else:
            derived[label] = den * sum((u * b for u, b in zip(mu, rhs)), _ZERO)

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
