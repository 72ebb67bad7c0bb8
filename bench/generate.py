"""Seeded benchmark inputs whose verdicts are known by construction.

Nothing here calls the engine: every verdict is fixed by how the
instance is built, so the benchmark can check the engine against it.

* Feasible moment instances take their targets from the exact moments of
  a seeded sparse rational distribution.
* Infeasible moment instances have zero means, second moments ``v`` and
  every pair moment below ``-v/(n-1)``, so ``E[(X_1+...+X_n)^2] < 0``.
  Every target lies inside the range its monomial can reach, so no
  single-constraint range check can decide them.
* CHSH and triple grid points are classified by the closed-form
  inequalities, which are exact for zero-mean +-1 observables.
* GHZ subsets are classified by brute force over the 256 sign
  assignments: with +-1 targets a product constraint holds almost
  surely, so a subset is feasible exactly when one assignment meets it.
* Quantum-angle points carry the float value of their slack, computed
  from ``math.cos``, to compare against the exact evaluators.

The seed only changes the numbers. The mix of shapes, supports and
target denominators in a pass is fixed, so the cost of a pass varies
little from seed to seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

SCHEMA = "jointfeas/problem/v1"

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

# Target denominators cycled through grid points and feasible weights.
GRID_DENOMINATORS = (4, 8, 12, 30)
MASS_DENOMINATORS = (12, 30, 60, 97)

CHSH_NAMES = ("A", "Ap", "B", "Bp")
CHSH_PAIRS = (("A", "B"), ("A", "Bp"), ("Ap", "B"), ("Ap", "Bp"))
TRIPLE_NAMES = ("X", "Y", "Z")
TRIPLE_PAIRS = (("X", "Y"), ("Y", "Z"), ("X", "Z"))

# The default GHZ quadruples (phases in half-pi units), as in the file format.
GHZ_QUADRUPLES = ((0, 0, 0, 0), (2, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1), (2, 0, 1, 1))
GHZ_FAMILIES = "ABCD"


@dataclass(frozen=True)
class Instance:
    """One generated input: a problem document and its known verdict."""

    name: str
    verdict: str
    doc: dict[str, Any]


@dataclass(frozen=True)
class GridPoint:
    """A zero-mean +-1 point for the CHSH (4 variables) or triple (3) criterion."""

    kind: str  # "chsh" | "triple"
    moments: tuple[Fraction, ...]  # pair moments in CHSH_PAIRS / TRIPLE_PAIRS order
    verdict: str


@dataclass(frozen=True)
class SurdPoint:
    """Pair moments -cos(angle difference) in degrees, for one evaluator."""

    inequality: str  # "chsh" | "bell_original" | "spin1_strengthened"
    degrees: tuple[int, ...]
    expected_slack: float


# ---------------------------------------------------------------------------
# Finite-moment instances
# ---------------------------------------------------------------------------


def _moment(assignments, weights, exponents: dict[str, int]) -> Fraction:
    total = Fraction(0)
    for values, p in zip(assignments, weights):
        term = p
        for name, k in exponents.items():
            term *= values[name] ** k
        total += term
    return total


def _exponent_list(names: list[str], squares: bool) -> list[dict[str, int]]:
    out: list[dict[str, int]] = [{n: 1} for n in names]
    if squares:
        out += [{n: 2} for n in names]
    out += [{a: 1, b: 1} for a, b in itertools.combinations(names, 2)]
    return out


def _document(name: str, support: tuple[Fraction, ...], names: list[str],
              constraints: list[tuple[dict[str, int], Fraction]]) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "kind": "finite-moment",
        "label": name,
        "variables": [{"name": n, "support": [str(s) for s in support]} for n in names],
        "constraints": [{"exponents": e, "target": str(t)} for e, t in constraints],
    }


def moment_instance(rng: random.Random, name: str, support: tuple[Fraction, ...], n: int,
                    verdict: str, denominator: int) -> Instance:
    """Means (plus squares for three-valued supports) and all pair moments.

    ``denominator`` sets the target denominators: the feasible masses are
    multiples of ``1/denominator``; the infeasible second moment and pair
    offsets are multiples of it too.
    """
    names = [f"X{i}" for i in range(n)]
    squares = len(support) > 2
    exponents = _exponent_list(names, squares)
    if verdict == FEASIBLE:
        atoms = rng.sample(list(itertools.product(support, repeat=n)), n + 2)
        cuts = sorted(rng.sample(range(1, denominator), len(atoms) - 1))
        weights = [Fraction(b - a, denominator) for a, b in zip([0] + cuts, cuts + [denominator])]
        assignments = [dict(zip(names, atom)) for atom in atoms]
        constraints = [(e, _moment(assignments, weights, e)) for e in exponents]
    else:
        if squares:
            # The pair targets reach down to -1.5 v / (n-1) >= -0.75 v; keep
            # that above the smallest product the support can reach.
            reach = min(max(s * s for s in support), -min(s * t for s in support for t in support))
            v = reach * Fraction(rng.randint(denominator // 2, denominator), denominator)
        else:
            (v,) = {s * s for s in support}  # +-1 supports: X^2 is constant
        bound = v / (n - 1)
        constraints = []
        for e in exponents:
            if len(e) == 2:
                push = Fraction(rng.randint(1, denominator // 2), denominator)
                constraints.append((e, -bound * (1 + push)))
            elif next(iter(e.values())) == 2:
                constraints.append((e, v))
            else:
                constraints.append((e, Fraction(0)))
    return Instance(name, verdict, _document(name, support, names, constraints))


# Rungs as (support, n, instances per verdict). Seeded rungs draw their
# numbers from the run's seed. Anchor rungs are the costliest shapes (2-17 s
# per call, moving by 10-30 % with the targets); with only one instance per
# verdict, a seeded draw would make a pass's time depend more on the seed
# than on the engine, so they are drawn from a fixed seed instead.
LADDER_RUNGS = (
    ((-1, 1), 4, 3),
    ((-1, 1), 5, 3),
    ((-1, 1), 6, 3),
    ((-1, 0, 1), 3, 3),
    ((-2, 0, 2), 3, 2),
    ((-1, Fraction(1, 2), 2), 3, 2),
)
LADDER_ANCHORS = (
    ((-1, 1), 7, 1),
    ((-1, 0, 1), 4, 1),
)
ORACLE_SHAPES = (
    ((-1, 1), 3, 8),
    ((-1, 1), 4, 4),
)
ORACLE_ANCHORS = (((-1, 0, 1), 3, 1),)
ANCHOR_SEED = "anchor"


def _rung_instances(rng: random.Random, rungs, prefix: str) -> list[Instance]:
    out = []
    serial = itertools.count()
    for support, n, per_verdict in rungs:
        support = tuple(Fraction(s) for s in support)
        for verdict in (FEASIBLE, INFEASIBLE):
            for _ in range(per_verdict):
                i = next(serial)
                denominator = MASS_DENOMINATORS[i % len(MASS_DENOMINATORS)]
                tag = "pm1" if len(support) == 2 else "v3"
                name = f"{prefix}-{tag}-n{n}-{verdict}-{i:03d}"
                out.append(moment_instance(rng, name, support, n, verdict, denominator))
    return out


# ---------------------------------------------------------------------------
# GHZ subsets
# ---------------------------------------------------------------------------


def _ghz_constraints(quads) -> list[tuple[dict[str, int], Fraction]]:
    """One product constraint per quadruple; target -cos of the signed phase sum."""
    out = []
    for q in quads:
        s = (q[0] + q[1] - q[2] - q[3]) % 4
        out.append(({f"{f}_{p * 90}": 1 for f, p in zip(GHZ_FAMILIES, q)}, Fraction({0: -1, 2: 1}[s])))
    return out


def ghz_subset_verdict(quads) -> str:
    constraints = _ghz_constraints(quads)
    names = sorted({n for exponents, _ in constraints for n in exponents})
    for signs in itertools.product((-1, 1), repeat=len(names)):
        value = dict(zip(names, signs))
        if all(math.prod(value[n] for n in e) == t for e, t in constraints):
            return FEASIBLE
    return INFEASIBLE


def instance_targets(instance: Instance) -> list[tuple[dict[str, int], Fraction]]:
    """The (exponents, exact target) pairs an instance's witness must meet."""
    if instance.doc["kind"] == "ghz":
        return _ghz_constraints(instance.doc["quadruples"])
    return [(c["exponents"], Fraction(c["target"])) for c in instance.doc["constraints"]]


def ghz_instances() -> list[Instance]:
    """The 63 nonempty subsets of the default GHZ quadruples."""
    out = []
    for mask in range(1, 1 << len(GHZ_QUADRUPLES)):
        quads = tuple(q for i, q in enumerate(GHZ_QUADRUPLES) if mask >> i & 1)
        name = f"ghz-{mask:02d}"
        doc = {"schema": SCHEMA, "kind": "ghz", "label": name, "quadruples": [list(q) for q in quads]}
        out.append(Instance(name, ghz_subset_verdict(quads), doc))
    return out


# ---------------------------------------------------------------------------
# Grid points
# ---------------------------------------------------------------------------


def chsh_verdict(m: tuple[Fraction, ...]) -> str:
    for flip in range(4):
        s = sum(-x if i == flip else x for i, x in enumerate(m))
        if not -2 <= s <= 2:
            return INFEASIBLE
    return FEASIBLE


def triple_verdict(m: tuple[Fraction, ...]) -> str:
    return FEASIBLE if -1 <= sum(m) <= 1 + 2 * min(m) else INFEASIBLE


def _grid_value(rng: random.Random, denominator: int) -> Fraction:
    return Fraction(rng.randint(-denominator, denominator), denominator)


def grid_point(rng: random.Random, kind: str, denominator: int, boundary: bool) -> GridPoint:
    """A grid point; with ``boundary`` one moment is solved onto a facet when possible."""
    size = 4 if kind == "chsh" else 3
    m = [_grid_value(rng, denominator) for _ in range(size)]
    if boundary:
        if kind == "chsh":
            # m0 + m1 + m2 - m3 = +-2 (one facet of the CHSH polytope)
            last = m[0] + m[1] + m[2] - rng.choice((2, -2))
        else:
            last = -1 - m[0] - m[1]  # E(XY) + E(YZ) + E(XZ) = -1
        if -1 <= last <= 1:
            m[-1] = last
    m_t = tuple(m)
    verdict = chsh_verdict(m_t) if kind == "chsh" else triple_verdict(m_t)
    return GridPoint(kind, m_t, verdict)


def _neg_cos(degrees: int) -> float:
    return -math.cos(math.radians(degrees))


def _surd_slack(inequality: str, m: list[float]) -> float:
    if inequality == "chsh":
        slacks = []
        for flip in range(4):
            s = sum(-x if i == flip else x for i, x in enumerate(m))
            slacks += [2 - s, s + 2]
        return min(slacks)
    if inequality == "bell_original":
        exy, eyz, exz = m
        return 1 + eyz - abs(exy - exz)
    eab, eabp, eapb, eapbp = m
    extra = 2 * (abs(eab) - 1) * (abs(eabp) - 1)
    return 2 - (abs(eab - eabp) + abs(eapb + eapbp) + extra)


def surd_point(rng: random.Random, inequality: str) -> SurdPoint:
    """Measurement angles on a 45- or 30-degree lattice (one radicand per point)."""
    step = rng.choice((45, 30))
    if inequality == "bell_original":
        x, y, z = (step * rng.randint(0, 360 // step - 1) for _ in range(3))
        degrees = (x - y, y - z, x - z)
    else:
        a, ap, b, bp = (step * rng.randint(0, 360 // step - 1) for _ in range(4))
        degrees = (a - b, a - bp, ap - b, ap - bp)
    slack = _surd_slack(inequality, [_neg_cos(d) for d in degrees])
    return SurdPoint(inequality, degrees, slack)


SURD_INEQUALITIES = ("chsh", "bell_original", "spin1_strengthened")
# CHSH calls take about twice as long as triple calls and surd evaluations
# far less, so 800 CHSH points keep the median latency well inside one group.
GRID_CHSH, GRID_TRIPLE, GRID_SURD = 800, 280, 120


def grid_sweep_inputs(seed: int) -> list[GridPoint | SurdPoint]:
    """CHSH and triple points (one in eight on a facet) plus the surd slice."""
    rng = random.Random(f"grid_sweep:{seed}")
    points: list[GridPoint | SurdPoint] = []
    for i in range(GRID_CHSH + GRID_TRIPLE):
        kind = "chsh" if i < GRID_CHSH else "triple"
        denominator = GRID_DENOMINATORS[i % len(GRID_DENOMINATORS)]
        points.append(grid_point(rng, kind, denominator, boundary=i % 8 == 7))
    points += [surd_point(rng, SURD_INEQUALITIES[i % 3]) for i in range(GRID_SURD)]
    rng.shuffle(points)
    return points


def lattice_ladder_inputs(seed: int) -> list[Instance]:
    rng = random.Random(f"lattice_ladder:{seed}")
    out = _rung_instances(rng, LADDER_RUNGS, "ladder")
    out += _rung_instances(random.Random(ANCHOR_SEED), LADDER_ANCHORS, "anchor")
    out += ghz_instances()
    rng.shuffle(out)
    return out


def oracle_crosscheck_inputs(seed: int) -> list[Instance]:
    rng = random.Random(f"oracle_crosscheck:{seed}")
    out = _rung_instances(rng, ORACLE_SHAPES, "oracle")
    out += _rung_instances(random.Random(ANCHOR_SEED), ORACLE_ANCHORS, "anchor")
    rng.shuffle(out)
    return out
