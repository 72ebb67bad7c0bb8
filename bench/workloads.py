"""The benchmark's workloads as lists of operations.

Each operation has a timed call into the engine's public interface and
a gate that checks the call's output exactly, outside the timed region.
The workloads:

* ``grid_sweep``       - library calls: ``decide`` plus the closed-form
  criterion on CHSH and triple grid points, and the closed-form
  evaluators on exact quantum-angle surds.
* ``lattice_ladder``   - ``jointfeas hidden-variable`` on moment files up
  a ladder of lattice sizes, plus the 63 GHZ subsets.
* ``oracle_crosscheck`` - ``jointfeas decide --oracle`` on small moment
  files, where the cone oracle dominates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from jointfeas import algebraic, cli, feasibility, files, inequalities, probability

import generate as gen

EXIT_CODE = {gen.FEASIBLE: 0, gen.INFEASIBLE: 1}

# Float check of a surd slack: the exact value's enclosure against math.cos.
SURD_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` is timed; ``check`` gates its output.

    ``check`` returns (passed, observed verdict). ``verdict`` is the
    verdict known by construction, or None for closed-form evaluations
    that decide no feasibility question.
    """

    name: str
    verdict: str | None
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, str]]
    prepare: Callable[[], None] = lambda: None


# ---------------------------------------------------------------------------
# grid_sweep
# ---------------------------------------------------------------------------


def grid_problem(point: gen.GridPoint) -> feasibility.MomentProblem:
    names, pairs = (gen.CHSH_NAMES, gen.CHSH_PAIRS) if point.kind == "chsh" else (gen.TRIPLE_NAMES, gen.TRIPLE_PAIRS)
    constraints = [feasibility.MomentConstraint.of({n: 1}, 0) for n in names]
    constraints += [feasibility.MomentConstraint.of({a: 1, b: 1}, m) for (a, b), m in zip(pairs, point.moments)]
    return feasibility.MomentProblem(tuple(probability.pm_one(n) for n in names), tuple(constraints))


def _grid_op(index: int, point: gen.GridPoint) -> Op:
    problem = grid_problem(point)
    evaluator = "eval_chsh" if point.kind == "chsh" else "eval_triple_moment_bounds"

    def call():
        return feasibility.decide(problem), getattr(inequalities, evaluator)(*point.moments)

    def check(out) -> tuple[bool, str]:
        result, report = out
        closed_form = gen.FEASIBLE if report.satisfied else gen.INFEASIBLE
        ok = result.verdict == point.verdict == closed_form
        if result.feasible:
            ok = ok and result.witness is not None and all(
                probability.expectation(result.witness, c.exponent_map) == c.target
                for c in problem.constraints
            )
        else:
            ok = ok and result.certificate is not None and feasibility.verify_certificate(
                problem, result.certificate
            )
        return ok, result.verdict

    return Op(f"grid-{point.kind}-{index:04d}", point.verdict, call, check)


def _surd_op(index: int, point: gen.SurdPoint) -> Op:
    values = tuple(files.parse_exact({"minus_cos_degrees": d}) for d in point.degrees)

    def call():
        return getattr(inequalities, f"eval_{point.inequality}")(*values)

    def check(report) -> tuple[bool, str]:
        lo, hi = algebraic.enclosure(report.slack)
        ok = abs(float((lo + hi) / 2) - point.expected_slack) <= SURD_TOLERANCE
        if abs(point.expected_slack) > SURD_TOLERANCE:
            ok = ok and report.satisfied == (point.expected_slack > 0)
        return ok, report.verdict

    return Op(f"surd-{point.inequality}-{index:04d}", None, call, check)


def grid_sweep(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for i, point in enumerate(gen.grid_sweep_inputs(seed)):
        ops.append(_grid_op(i, point) if isinstance(point, gen.GridPoint) else _surd_op(i, point))
    return ops


# ---------------------------------------------------------------------------
# Command-line workloads
# ---------------------------------------------------------------------------


def _witness_matches(witness: dict, targets) -> bool:
    """Exact recheck of a reported witness: a distribution meeting every target."""
    names = [v["name"] for v in witness["variables"]]
    supports = {v["name"]: {Fraction(x) for x in v["support"]} for v in witness["variables"]}
    atoms = []
    for key, p in witness["mass"].items():
        values = dict(zip(names, (Fraction(x) for x in key.split(","))))
        if Fraction(p) <= 0 or any(values[n] not in supports[n] for n in names):
            return False
        atoms.append((values, Fraction(p)))
    if sum(p for _, p in atoms) != 1:
        return False
    return all(
        sum(p * math.prod(v[n] ** k for n, k in exponents.items()) for v, p in atoms) == target
        for exponents, target in targets
    )


def _cli_op(instance: gen.Instance, workdir: Path, command: str) -> Op:
    problem_path = workdir / f"{instance.name}.json"
    problem_path.write_text(json.dumps(instance.doc), encoding="utf-8")
    out_path = workdir / f"{instance.name}.report.json"
    argv = [command, str(problem_path), "--out", str(out_path)]
    if command == "decide":
        argv.insert(2, "--oracle")
    targets = gen.instance_targets(instance)

    def call():
        return cli.run(argv)

    def check(code) -> tuple[bool, str]:
        if code != EXIT_CODE[instance.verdict]:
            return False, f"exit {code}"
        results = json.loads(out_path.read_text(encoding="utf-8"))["results"]
        ok = results["verdict"] == instance.verdict
        if instance.verdict == gen.INFEASIBLE:
            ok = ok and results["certificate_verified"] is True
        else:
            ok = ok and _witness_matches(results["witness"], targets)
            if command == "hidden-variable":
                ok = ok and bool(results["verification"]) and all(
                    v is True for v in results["verification"].values()
                )
        if command == "decide":
            oracle = results["oracle"]
            ok = ok and oracle["agrees"] is True and oracle["verdict"] == instance.verdict
        return ok, results["verdict"]

    return Op(instance.name, instance.verdict, call, check, prepare=lambda: out_path.unlink(missing_ok=True))


def lattice_ladder(seed: int, workdir: Path) -> list[Op]:
    return [_cli_op(inst, workdir, "hidden-variable") for inst in gen.lattice_ladder_inputs(seed)]


def oracle_crosscheck(seed: int, workdir: Path) -> list[Op]:
    return [_cli_op(inst, workdir, "decide") for inst in gen.oracle_crosscheck_inputs(seed)]


# name -> (build function, per-operation time limit in seconds). The limits are
# several times the slowest operation of each workload on the 2-vCPU VM the
# benchmark was tuned on (about 30 ms, 6 s and 20 s).
WORKLOADS: dict[str, tuple[Callable[[int, Path], list[Op]], float]] = {
    "grid_sweep": (grid_sweep, 5.0),
    "lattice_ladder": (lattice_ladder, 40.0),
    "oracle_crosscheck": (oracle_crosscheck, 60.0),
}
