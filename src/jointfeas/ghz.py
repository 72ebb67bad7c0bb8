"""Four-party phase-indexed moment systems (GHZ-type) and their analysis.

Eight +-1 observables, named by family and phase in degrees:

    A_0, B_0, C_0, D_0, A_180, A_90, C_90, D_90

A configuration selects quadruples of phases (phi1, phi2, phi3, phi4),
one per family, each imposing the product moment

    E(A_phi1 * B_phi2 * C_phi3 * D_phi4) = -cos(phi1 + phi2 - phi3 - phi4).

The default configuration selects every quadruple with a phase sum that
is a multiple of pi realizable from the eight observables; its six
integer-target constraints admit no joint distribution, which
:func:`prove_ghz_infeasible` establishes with a verifiable certificate.
:func:`replay_certainty_chain` walks the conditional-certainty argument
step by step on a concrete distribution.

Phases are handled in exact multiples of pi/2 so every target is an
integer in {-1, 0, 1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError
from .feasibility import (
    FeasibilityResult,
    MomentConstraint,
    MomentProblem,
    decide,
)
from .probability import (
    JointDistribution,
    conditional_probability,
    event_product,
    event_value,
    event_where,
    expectation,
    pm_one,
)

__all__ = [
    "DEFAULT_QUADRUPLES",
    "GHZ_VARIABLE_ORDER",
    "ChainReport",
    "ChainStep",
    "GHZConfig",
    "build_ghz_problem",
    "drop_constraints",
    "minimal_infeasible_subsets",
    "prove_ghz_infeasible",
    "replay_certainty_chain",
    "subset_feasibility_map",
]

# Phases available per family, in half-pi units (0 -> 0, 1 -> pi/2, 2 -> pi).
FAMILY_PHASES: dict[str, tuple[int, ...]] = {
    "A": (0, 2, 1),
    "B": (0,),
    "C": (0, 1),
    "D": (0, 1),
}
FAMILIES = ("A", "B", "C", "D")

# Declaration order of the eight observables (fixed, used everywhere).
GHZ_VARIABLE_ORDER = ("A_0", "B_0", "C_0", "D_0", "A_180", "A_90", "C_90", "D_90")

# Default selection: all quadruples over the available phases whose
# signed phase sum is a multiple of pi, hence an integer target.
DEFAULT_QUADRUPLES: tuple[tuple[int, int, int, int], ...] = (
    (0, 0, 0, 0),  # target -1
    (2, 0, 0, 0),  # target +1
    (1, 0, 1, 0),  # target -1
    (1, 0, 0, 1),  # target -1
    (0, 0, 1, 1),  # target +1
    (2, 0, 1, 1),  # target -1
)


def variable_name(family: str, half_pi_units: int) -> str:
    return f"{family}_{half_pi_units * 90}"


def phase_target(quadruple: Sequence[int]) -> Fraction:
    """-cos((phi1 + phi2 - phi3 - phi4)) for phases in half-pi units."""
    s = (quadruple[0] + quadruple[1] - quadruple[2] - quadruple[3]) % 4
    return {0: Fraction(-1), 1: Fraction(0), 2: Fraction(1), 3: Fraction(0)}[s]


@dataclass(frozen=True)
class GHZConfig:
    """A selection of phase quadruples, phases in half-pi units."""

    quadruples: tuple[tuple[int, int, int, int], ...] = DEFAULT_QUADRUPLES

    def __post_init__(self) -> None:
        if not self.quadruples:
            raise ValidationError("a configuration needs at least one quadruple")
        seen = set()
        for quad in self.quadruples:
            if len(quad) != 4:
                raise ValidationError(f"quadruple {quad} must have four phases")
            for family, phase in zip(FAMILIES, quad):
                if phase not in FAMILY_PHASES[family]:
                    raise ValidationError(
                        f"family {family} has no phase {phase * 90} degrees; "
                        f"available: {[p * 90 for p in FAMILY_PHASES[family]]}"
                    )
            if quad in seen:
                raise ValidationError(f"duplicate quadruple {quad}")
            seen.add(quad)

    def targets(self) -> tuple[Fraction, ...]:
        return tuple(phase_target(q) for q in self.quadruples)

    def constraint_variables(self, quad: Sequence[int]) -> tuple[str, ...]:
        return tuple(variable_name(f, p) for f, p in zip(FAMILIES, quad))


def build_ghz_problem(config: GHZConfig = GHZConfig()) -> MomentProblem:
    """Moment problem over the eight observables, one product constraint
    per selected quadruple."""
    variables = tuple(pm_one(name) for name in GHZ_VARIABLE_ORDER)
    constraints = []
    for quad in config.quadruples:
        names = config.constraint_variables(quad)
        constraints.append(MomentConstraint.of({n: 1 for n in names}, phase_target(quad)))
    return MomentProblem(variables, tuple(constraints), label="ghz")


def prove_ghz_infeasible(config: GHZConfig = GHZConfig()) -> FeasibilityResult:
    """Decide the configured system; the default is infeasible with a
    certificate that re-verifies exactly."""
    return decide(build_ghz_problem(config))


def drop_constraints(
    config: GHZConfig,
    *,
    variables: Iterable[str] = (),
    indices: Iterable[int] = (),
) -> GHZConfig:
    """Remove the quadruples touching any named observable or listed index."""
    names = set(variables)
    unknown = names - set(GHZ_VARIABLE_ORDER)
    if unknown:
        raise ValidationError(f"unknown observables: {sorted(unknown)}")
    drop_idx = set(indices)
    kept = []
    for i, quad in enumerate(config.quadruples):
        if i in drop_idx:
            continue
        if names & set(config.constraint_variables(quad)):
            continue
        kept.append(quad)
    if not kept:
        raise ValidationError("dropping these constraints leaves an empty configuration")
    return GHZConfig(tuple(kept))


def subset_feasibility_map(config: GHZConfig = GHZConfig()) -> dict[frozenset[int], str]:
    """decide() verdict for every nonempty subset of the configured
    constraints, keyed by constraint indices."""
    verdicts: dict[frozenset[int], str] = {}
    n = len(config.quadruples)
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            sub = GHZConfig(tuple(config.quadruples[i] for i in combo))
            verdicts[frozenset(combo)] = prove_ghz_infeasible(sub).verdict
    return verdicts


def minimal_infeasible_subsets(
    feasibility: Mapping[frozenset[int], str]
) -> list[tuple[int, ...]]:
    """Infeasible subsets all of whose proper subsets are feasible."""
    infeasible = {s for s, v in feasibility.items() if v == "infeasible"}
    minimal = []
    for s in infeasible:
        if not any(t < s for t in infeasible):
            minimal.append(tuple(sorted(s)))
    return sorted(minimal, key=lambda t: (len(t), t))


# ---------------------------------------------------------------------------
# The conditional-certainty chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    step: int
    statement: str
    requires: tuple[int, ...]  # indices into DEFAULT_QUADRUPLES
    status: str  # "holds" | "fails" | "vacuous" | "hypothesis_fails"
    detail: str = ""


@dataclass(frozen=True)
class ChainReport:
    signs: tuple[int, int, int, int]
    steps: tuple[ChainStep, ...]
    first_break: int | None
    note: str = ""

    def step_status(self, step: int) -> str:
        for s in self.steps:
            if s.step == step:
                return s.status
        raise KeyError(step)


def _satisfied_constraints(dist: JointDistribution) -> set[int]:
    """Indices of DEFAULT_QUADRUPLES whose product moment dist matches."""
    satisfied = set()
    for i, quad in enumerate(DEFAULT_QUADRUPLES):
        names = [variable_name(f, p) for f, p in zip(FAMILIES, quad)]
        if expectation(dist, {n: 1 for n in names}) == phase_target(quad):
            satisfied.add(i)
    return satisfied


def replay_certainty_chain(dist: JointDistribution) -> ChainReport:
    """Replay the certainty chain that makes the six-constraint system
    contradictory, as exact computations on a concrete distribution.

    Signs (s1..s4) are taken from the first positive-probability joint
    outcome of (A_0, B_0, C_0, D_0).  Each numbered step states a
    conditional probability-1 claim; a step whose product-moment
    prerequisites the distribution does not satisfy reports
    "hypothesis_fails", a step whose conditioning event has zero
    probability reports "vacuous", and otherwise the claim is checked
    exactly.  Steps 8 and 18 assert opposite values for A_180 on nested
    conditioning events, so no distribution can satisfy the full system;
    ``first_break`` localizes where the chain stops holding.
    """
    if tuple(v.name for v in dist.variables) != GHZ_VARIABLE_ORDER:
        raise ValidationError(
            f"distribution must be over {GHZ_VARIABLE_ORDER} in declaration order"
        )
    satisfied = _satisfied_constraints(dist)

    base = dist.marginal(["A_0", "B_0", "C_0", "D_0"])
    first_atom = next(iter(base.mass))
    s1, s2, s3, s4 = (int(v) for v in base.values_at(first_atom))
    signs = (s1, s2, s3, s4)

    e_b = event_value(dist, "B_0", s2)
    e_bc = e_b & event_value(dist, "C_0", s3)
    e_bcd = e_bc & event_value(dist, "D_0", s4)
    e_bd = e_b & event_value(dist, "D_0", s4)
    e_b_c0d0 = e_b & event_product(dist, ["C_0", "D_0"], s3 * s4)
    e_b_c90d90 = e_b & event_product(dist, ["C_90", "D_90"], s3 * s4)

    def eq(names: Sequence[str], names2: Sequence[str]):
        def pred(asg):
            left = Fraction(1)
            for n in names:
                left *= asg[n]
            right = Fraction(1)
            for n in names2:
                right *= asg[n]
            return left == right

        return event_where(dist, pred)

    steps: list[ChainStep] = []

    def check(step: int, statement: str, requires: tuple[int, ...], target, given) -> None:
        missing = [i for i in requires if i not in satisfied]
        if missing:
            quads = [DEFAULT_QUADRUPLES[i] for i in missing]
            steps.append(
                ChainStep(step, statement, requires, "hypothesis_fails",
                          f"product-moment constraints not satisfied: {quads}")
            )
            return
        p = conditional_probability(dist, target, given)
        if p is None:
            steps.append(ChainStep(step, statement, requires, "vacuous",
                                   "conditioning event has probability zero"))
        elif p == 1:
            steps.append(ChainStep(step, statement, requires, "holds"))
        else:
            steps.append(ChainStep(step, statement, requires, "fails",
                                   f"conditional probability is {p}, not 1"))

    # Step 6: some joint outcome of (A_0,B_0,C_0,D_0) has positive mass.
    steps.append(ChainStep(6, f"positive-probability outcome signs {signs}", (), "holds"))

    # Step 7: with E(A_0 B_0 C_0 D_0) = -1 the chosen signs multiply to -1.
    if 0 not in satisfied:
        steps.append(ChainStep(7, "s1*s2*s3*s4 = -1", (0,), "hypothesis_fails",
                               "E(A_0 B_0 C_0 D_0) != -1"))
    else:
        ok = s1 * s2 * s3 * s4 == -1
        steps.append(ChainStep(7, "s1*s2*s3*s4 = -1", (0,), "holds" if ok else "fails"))

    check(8, f"P(A_180 = {s2*s3*s4} | B_0={s2}, C_0={s3}, D_0={s4}) = 1", (1,),
          event_value(dist, "A_180", s2 * s3 * s4), e_bcd)
    check(9, f"P(A_0*C_0 = {-s2*s4} | B_0={s2}, D_0={s4}) = 1", (0,),
          event_product(dist, ["A_0", "C_0"], -s2 * s4), e_bd)
    check(10, f"P(A_0*C_0 = {-s2*s4} | B_0={s2}, C_0={s3}, D_0={s4}) = 1", (0,),
          event_product(dist, ["A_0", "C_0"], -s2 * s4), e_bcd)
    check(11, f"P(A_90*C_90 = {-s2*s4} | B_0={s2}, C_0={s3}, D_0={s4}) = 1", (2,),
          event_product(dist, ["A_90", "C_90"], -s2 * s4), e_bcd)
    check(12, f"P(A_0*C_0 = A_90*C_90 | B_0={s2}, C_0*D_0={s3*s4}) = 1", (0, 2),
          eq(["A_0", "C_0"], ["A_90", "C_90"]), e_b_c0d0)
    check(13, f"P(A_0*D_0 = A_90*D_90 | B_0={s2}, C_0*D_0={s3*s4}) = 1", (0, 3),
          eq(["A_0", "D_0"], ["A_90", "D_90"]), e_b_c0d0)
    check(14, f"P(C_0/D_0 = C_90/D_90 | B_0={s2}, C_0*D_0={s3*s4}) = 1", (0, 2, 3),
          eq(["C_0", "D_0"], ["C_90", "D_90"]), e_b_c0d0)
    check(15, f"P(C_0*D_0 = C_90*D_90 | B_0={s2}, C_0*D_0={s3*s4}) = 1", (0, 2, 3),
          eq(["C_0", "D_0"], ["C_90", "D_90"]), e_b_c0d0)
    check(16, f"P(C_90*D_90 = {s3*s4} | B_0={s2}, C_0*D_0={s3*s4}) = 1", (0, 2, 3),
          event_product(dist, ["C_90", "D_90"], s3 * s4), e_b_c0d0)
    check(17, f"P(A_180 = {-s2*s3*s4} | B_0={s2}, C_90*D_90={s3*s4}) = 1", (5,),
          event_value(dist, "A_180", -s2 * s3 * s4), e_b_c90d90)
    check(18, f"P(A_180 = {-s2*s3*s4} | B_0={s2}, C_0*D_0={s3*s4}) = 1", (0, 2, 3, 5),
          event_value(dist, "A_180", -s2 * s3 * s4), e_b_c0d0)

    first_break = next((s.step for s in steps if s.status != "holds"), None)
    note = ""
    status8 = next(s.status for s in steps if s.step == 8)
    status18 = next(s.status for s in steps if s.step == 18)
    if status8 == "holds" and status18 == "holds":
        note = (
            "steps 8 and 18 both hold, asserting opposite values of A_180 "
            "on a common positive-probability event: contradiction"
        )
    return ChainReport(signs, tuple(steps), first_break, note)
