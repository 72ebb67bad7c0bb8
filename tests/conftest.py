"""Shared randomized generators for exact distributions and problems."""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from jointfeas import (
    FiniteRandomVariable,
    JointDistribution,
    MomentConstraint,
    MomentProblem,
)


def rational_lp(rows, rhs):
    """``solve_equality_feasibility``'s arguments ``(matrix, rhs, den)`` for rational rows.

    The rows go over the lcm of all their entries' denominators; the
    matrix is int64 when every numerator fits, else Python ints.
    """
    den = lcm(*[Fraction(v).denominator for row in rows for v in row])
    values = [[Fraction(v).numerator * (den // Fraction(v).denominator) for v in row] for row in rows]
    fits = all(abs(v) < 2**63 for row in values for v in row)
    return np.array(values, np.int64 if fits else object), rhs, den


def subprocess_env() -> dict[str, str]:
    """This process's environment with the repository's ``src`` first on ``PYTHONPATH``.

    A child interpreter sees only its environment, not pytest's
    ``pythonpath`` setting, so this lets it import ``jointfeas``.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


SUPPORT_POOL = [
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
]


def random_variables(rng: random.Random, max_vars: int = 3, max_values: int = 3):
    n_vars = rng.randint(1, max_vars)
    names = [f"V{i}" for i in range(n_vars)]
    variables = []
    for name in names:
        size = rng.randint(1, max_values)
        support = tuple(sorted(rng.sample(SUPPORT_POOL, size)))
        variables.append(FiniteRandomVariable(name, support))
    return tuple(variables)


def random_distribution(
    rng: random.Random, variables=None, max_vars: int = 3, max_values: int = 3
) -> JointDistribution:
    """Exact random distribution with small integer-ratio masses."""
    if variables is None:
        variables = random_variables(rng, max_vars, max_values)
    atoms = list(itertools.product(*(range(len(v.support)) for v in variables)))
    weights = [rng.randint(0, 6) for _ in atoms]
    if sum(weights) == 0:
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    mass = {a: Fraction(w, total) for a, w in zip(atoms, weights) if w}
    return JointDistribution(variables, mass)


def random_problem(rng: random.Random, feasible_bias: float = 0.5) -> MomentProblem:
    """Random small moment problem.

    With probability ``feasible_bias`` the targets are the exact moments
    of a random distribution (guaranteed feasible); otherwise targets
    are drawn at random (frequently infeasible), covering both verdicts
    and the boundary region.
    """
    variables = random_variables(rng)
    names = [v.name for v in variables]
    from jointfeas import expectation

    n_constraints = rng.randint(0, 4)
    exponent_maps = []
    seen = set()
    for _ in range(n_constraints):
        k_vars = rng.randint(1, min(2, len(names)))
        chosen = rng.sample(names, k_vars)
        exps = {n: rng.randint(1, 2) for n in chosen}
        key = tuple(sorted(exps.items()))
        if key in seen:
            continue
        seen.add(key)
        exponent_maps.append(exps)

    use_feasible = rng.random() < feasible_bias
    reference = random_distribution(rng, variables) if use_feasible else None
    constraints = []
    for exps in exponent_maps:
        if reference is not None:
            target = expectation(reference, exps)
        else:
            target = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        constraints.append(MomentConstraint.of(exps, target))
    return MomentProblem(variables, tuple(constraints))


def lemma_suite(rng: random.Random, spaces: int) -> tuple[int, int]:
    """Exercise all five conditional-certainty lemmas on random spaces.

    For each random distribution, hypothesis-satisfying instances are
    built constructively (certain events are unions containing the
    conditioning event, constants are read off forced values), so the
    conclusions are genuinely checked rather than skipped as vacuous.
    Returns (conclusion_failures, non_vacuous_checks).
    """
    from jointfeas import check_certainty_lemma, event_value, event_where

    failures = 0
    checked = 0

    def random_event(dist):
        atoms = list(dist.atom_space())
        k = rng.randint(1, len(atoms))
        return frozenset(rng.sample(atoms, k))

    def certain_superset(dist, base):
        extra = random_event(dist)
        return base | extra if rng.random() < 0.7 else base

    for _ in range(spaces):
        dist = random_distribution(rng)
        names = [v.name for v in dist.variables]

        # Lemma 1: A contains B, so P(A|B)=1 whenever P(B)>0.
        b = random_event(dist)
        if dist.prob(b) > 0:
            a = certain_superset(dist, b)
            c = random_event(dist)
            report = check_certainty_lemma(dist, 1, a=a, b=b, c=c)
            if report.status != "vacuous":
                checked += 1
                failures += report.status == "fails"

        # Lemma 2: on A = {X=c, Y=c} both observables are forced to c.
        atom = rng.choice(list(dist.mass))
        asg = dist.assignment(atom)
        x2, y2 = rng.choice(names), rng.choice(names)
        c2 = asg[x2]
        a2 = event_where(dist, lambda s: s[x2] == c2 and s[y2] == c2)
        report = check_certainty_lemma(dist, 2, a=a2, x=x2, y=y2, c=c2)
        if report.status != "vacuous":
            checked += 1
            failures += report.status == "fails"

        # Lemma 3: on A = {X = Y}, P(X=Y | A, X=c) = 1 by construction.
        x3, y3 = rng.choice(names), rng.choice(names)
        c3 = dist.assignment(rng.choice(list(dist.mass)))[x3]
        a3 = event_where(dist, lambda s: s[x3] == s[y3])
        report = check_certainty_lemma(dist, 3, a=a3, x=x3, y=y3, c=c3)
        if report.status != "vacuous":
            checked += 1
            failures += report.status == "fails"

        # Lemma 4: nested events C <= B <= A give the two certainties.
        c4 = random_event(dist)
        if dist.prob(c4) > 0:
            b4 = certain_superset(dist, c4)
            a4 = certain_superset(dist, b4)
            report = check_certainty_lemma(dist, 4, a=a4, b=b4, c=c4)
            if report.status != "vacuous":
                checked += 1
                failures += report.status == "fails"

        # Lemma 5: A = {Y = Z} gives hypothesis (ii); take c as the value
        # X is forced to on the positive part of A & {Y = d}, when unique.
        y5, z5 = rng.choice(names), rng.choice(names)
        x5 = rng.choice(names)
        d5 = dist.assignment(rng.choice(list(dist.mass)))[y5]
        a5 = event_where(dist, lambda s: s[y5] == s[z5])
        on_yd = [
            a
            for a in a5 & event_value(dist, y5, d5)
            if dist.mass.get(a, 0) > 0
        ]
        forced_x = {dist.assignment(a)[x5] for a in on_yd}
        if len(forced_x) == 1:
            report = check_certainty_lemma(
                dist, 5, a=a5, x=x5, y=y5, z=z5, c=forced_x.pop(), d=d5
            )
            if report.status != "vacuous":
                checked += 1
                failures += report.status == "fails"

    return failures, checked


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240810)
