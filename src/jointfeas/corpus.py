"""Golden corpus: canonical cases the engine must reproduce exactly.

Each case file pins inputs and expected outputs for one anchor result:
the three counterexample distributions, both failure directions of
Bell's original inequality, the quantum violation at exact angles, the
full triple-moment and CHSH grid equivalences against the LP engine,
the GHZ system's infeasibility and subset structure, Gaussian boundary
and violation cases, the pair-sum pushforward table, and the
exchangeable-pair construction grid.

The runner recomputes every case and reports PASS/FAIL per anchor; any
drift is a regression.  The corpus directory can be overridden with the
``JOINTFEAS_CORPUS`` environment variable.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping

from .algebraic import as_fraction
from .errors import JointfeasError, ValidationError
from .feasibility import (
    MomentConstraint,
    MomentProblem,
    brute_force_oracle,
    decide,
    reduce_then_test,
    verify_certificate,
)
from .files import encode_exact, parse_exact, parse_problem
from .gaussian import complete_correlations, det_inequality_3var, eigenvalue_feasible
from .ghz import (
    GHZConfig,
    build_ghz_problem,
    drop_constraints,
    minimal_infeasible_subsets,
    prove_ghz_infeasible,
    subset_feasibility_map,
)
from .hidden_variable import (
    construct_deterministic,
    exchangeable_symmetric_construct,
    verify_factorization,
    verify_noncontextuality,
)
from .inequalities import (
    eval_bell_original,
    eval_chsh,
    eval_spin1_strengthened,
    eval_triple_lower_bound_with_means,
    eval_triple_moment_bounds,
)
from .probability import (
    correlation,
    covariance,
    expectation,
    pm_one,
    pushforward,
    variance,
)

__all__ = ["CaseResult", "corpus_dir", "load_cases", "run_case", "run_corpus"]

ENV_VAR = "JOINTFEAS_CORPUS"

_INEQUALITY_OPS: dict[str, Callable[..., Any]] = {
    "triple_moment_bounds": eval_triple_moment_bounds,
    "triple_lower_bound_with_means": eval_triple_lower_bound_with_means,
    "bell_original": eval_bell_original,
    "chsh": eval_chsh,
    "spin1_strengthened": eval_spin1_strengthened,
}


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    anchor: str
    passed: bool
    mismatches: tuple[str, ...] = ()


def corpus_dir() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path(str(resources.files("jointfeas").joinpath("corpus")))


def load_cases(directory: Path | None = None) -> list[dict]:
    base = directory if directory is not None else corpus_dir()
    if not base.is_dir():
        raise JointfeasError(f"corpus directory not found: {base}")
    cases = []
    for path in sorted(base.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            case = json.load(fh)
        case["_path"] = str(path)
        cases.append(case)
    if not cases:
        raise JointfeasError(f"no corpus cases in {base}")
    return cases


def _compare(expected: Any, actual: Any, path: str, mismatches: list[str]) -> None:
    if isinstance(expected, Mapping):
        if not isinstance(actual, Mapping):
            mismatches.append(f"{path}: expected object, got {actual!r}")
            return
        for key, value in expected.items():
            _compare(value, actual.get(key, "<missing>"), f"{path}.{key}", mismatches)
        return
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            mismatches.append(f"{path}: expected {expected!r}, got {actual!r}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _compare(e, a, f"{path}[{i}]", mismatches)
        return
    if expected != actual:
        mismatches.append(f"{path}: expected {expected!r}, got {actual!r}")


def _zero_mean_grid(
    step: Fraction,
    names: tuple[str, ...],
    pairs: tuple[tuple[str, str], ...],
    evaluate: Callable[..., Any],
) -> dict[str, int]:
    """Closed form versus ``decide`` on every grid point of the pair moments.

    The observables are zero-mean +-1 variables; each pair moment runs
    over -1, -1 + step, ... up to 1.
    """
    values = []
    v = Fraction(-1)
    while v <= 1:
        values.append(v)
        v += step
    variables = tuple(pm_one(n) for n in names)
    cases = disagreements = 0
    for moments in itertools.product(values, repeat=len(pairs)):
        cases += 1
        report = evaluate(*moments)
        problem = MomentProblem(
            variables,
            tuple(
                [MomentConstraint.of({n: 1}, 0) for n in names]
                + [
                    MomentConstraint.of({a: 1, b: 1}, m)
                    for (a, b), m in zip(pairs, moments)
                ]
            ),
        )
        if report.satisfied != decide(problem).feasible:
            disagreements += 1
    return {"cases": cases, "disagreements": disagreements}


def _exchangeable_grid(step: Fraction) -> dict[str, int]:
    cases = mismatches = 0
    rho = Fraction(-1)
    while rho <= 1:
        cases += 1
        p11 = p00 = (1 + rho) / 4
        p10 = p01 = (1 - rho) / 4
        built = exchangeable_symmetric_construct(p11, p10, p01, p00)
        if (built.model is not None) != (rho >= 0):
            mismatches += 1
        rho += step
    return {"cases": cases, "mismatches": mismatches}


def _run_checks(case: dict) -> dict[str, Any]:
    kind = case["kind"]

    if kind == "distribution_moments":
        dist = parse_problem(case["problem"])["distribution"]
        actual: dict[str, Any] = {}
        checks = case["checks"]
        if "means" in checks:
            actual["means"] = {n: str(expectation(dist, {n: 1})) for n in checks["means"]}
        if "variances" in checks:
            actual["variances"] = {n: str(variance(dist, n)) for n in checks["variances"]}
        if "covariances" in checks:
            actual["covariances"] = {
                key: str(covariance(dist, *key.split(","))) for key in checks["covariances"]
            }
        if "correlations" in checks:
            actual["correlations"] = {
                key: encode_exact(correlation(dist, *key.split(",")))
                for key in checks["correlations"]
            }
        return actual

    if kind == "decide":
        parsed = parse_problem(case["problem"])
        problem = parsed["problem"]
        result = decide(problem)
        actual = {"verdict": result.verdict}
        if "oracle_agrees" in case["expected"]:
            actual["oracle_agrees"] = brute_force_oracle(problem).verdict == result.verdict
        if "certificate_verifies" in case["expected"]:
            actual["certificate_verifies"] = result.certificate is not None and verify_certificate(
                problem, result.certificate
            )
        if "witness_atoms_at_most" in case["expected"]:
            n = len(result.witness.mass) if result.witness else 0
            bound = case["expected"]["witness_atoms_at_most"]
            actual["witness_atoms_at_most"] = bound if n <= bound else n
        return actual

    if kind == "inequality":
        op = _INEQUALITY_OPS[case["op"]]
        args = [parse_exact(v, f"args[{i}]") for i, v in enumerate(case["args"])]
        report = op(*args)
        return {"verdict": report.verdict, "slack": encode_exact(report.slack)}

    if kind == "triple_grid":
        return _zero_mean_grid(
            as_fraction(case["step"]),
            ("X", "Y", "Z"),
            (("X", "Y"), ("Y", "Z"), ("X", "Z")),
            eval_triple_moment_bounds,
        )

    if kind == "chsh_grid":
        return _zero_mean_grid(
            as_fraction(case["step"]),
            ("A", "Ap", "B", "Bp"),
            (("A", "B"), ("A", "Bp"), ("Ap", "B"), ("Ap", "Bp")),
            eval_chsh,
        )

    if kind == "exchangeable_grid":
        return _exchangeable_grid(as_fraction(case["step"]))

    if kind == "ghz_analysis":
        config = GHZConfig()
        result = prove_ghz_infeasible(config)
        problem = build_ghz_problem(config)
        fmap = subset_feasibility_map(config)
        all_idx = frozenset(range(len(config.quadruples)))
        actual = {
            "default_verdict": result.verdict,
            "certificate_verifies": result.certificate is not None
            and verify_certificate(problem, result.certificate),
            "leave_one_out": [
                fmap[frozenset(all_idx - {i})] for i in range(len(config.quadruples))
            ],
            "minimal_infeasible_subsets": [list(s) for s in minimal_infeasible_subsets(fmap)],
            "without_nonzero_phase_A": prove_ghz_infeasible(
                drop_constraints(config, variables=["A_180", "A_90"])
            ).verdict,
            "without_A_180": prove_ghz_infeasible(
                drop_constraints(config, variables=["A_180"])
            ).verdict,
        }
        return actual

    if kind == "gaussian_eigen":
        parsed = parse_problem(case["problem"])
        report = eigenvalue_feasible(parsed["correlations"])
        actual = {
            "feasible": report.feasible,
            "boundary": report.boundary,
            "lambda_min_between": _between(
                report.lambda_min, case["expected"]["lambda_min_between"]
            ),
        }
        if "det_verdict" in case["expected"]:
            e = parsed["exact_entries"]
            actual["det_verdict"] = det_inequality_3var(e[0][1], e[0][2], e[1][2]).verdict
        return actual

    if kind == "gaussian_completion":
        parsed = parse_problem(case["problem"])
        result = complete_correlations(parsed["correlations"])
        expected = case["expected"]
        actual: dict[str, Any] = {"feasible": result.feasible, "method": result.method}
        if "assignments_between" in expected:
            actual["assignments_between"] = {
                key: _between(result.assignments[tuple(map(int, key.split(",")))], bounds)
                for key, bounds in expected["assignments_between"].items()
            }
        if "interval_between" in expected:
            lo, hi = result.closed_form_interval
            actual["interval_between"] = [
                _between(lo, expected["interval_between"][0]),
                _between(hi, expected["interval_between"][1]),
            ]
        return actual

    if kind == "pushforward":
        dist = parse_problem(case["problem"])["distribution"]
        fns = []
        for spec in case["sums"]:
            names = list(spec["of"])
            fns.append((spec["name"], lambda asg, ns=names: sum(asg[n] for n in ns)))
        out = pushforward(dist, fns)
        probs = {}
        for key in case["expected"]["probabilities"]:
            values = [as_fraction(s) for s in key.split(",")]
            atoms = [
                atom
                for atom in out.atom_space()
                if list(out.values_at(atom)) == values
            ]
            probs[key] = str(out.prob(frozenset(atoms)))
        return {"probabilities": probs}

    if kind == "hidden_variable":
        dist = parse_problem(case["problem"])["distribution"]
        model = construct_deterministic(dist)
        return {
            "points": len(model.points),
            "deterministic": model.deterministic,
            "factorization_full": verify_factorization(model, "full").ok,
            "noncontextual": verify_noncontextuality(model, [[v.name] for v in model.variables]),
            "mixture_matches": model.mixture().mass == dist.mass,
        }

    if kind == "reduce_then_test":
        parsed = parse_problem(case["problem"])
        signmaps = {
            name: {as_fraction(k): v for k, v in table.items()}
            for name, table in case["signmaps"].items()
        }
        result = reduce_then_test(parsed["problem"], signmaps)
        actual = {"verdict": result.verdict}
        if result.mapped_result is not None:
            actual["mapped_verdict"] = result.mapped_result.verdict
        return actual

    raise ValidationError(f"unknown corpus case kind {kind!r}")


def _between(value: float, bounds: list) -> list:
    """Echo the expected bounds when the value falls inside them."""
    lo, hi = float(bounds[0]), float(bounds[1])
    if lo <= value <= hi:
        return [bounds[0], bounds[1]]
    return [value, value]


def run_case(case: dict) -> CaseResult:
    mismatches: list[str] = []
    try:
        actual = _run_checks(case)
    except Exception as exc:  # a crash is a corpus failure, not an abort
        return CaseResult(case["id"], case.get("anchor", ""), False, (f"error: {exc}",))
    expected = case["expected"] if case["kind"] != "distribution_moments" else case["checks"]
    _compare(expected, actual, "$", mismatches)
    return CaseResult(case["id"], case.get("anchor", ""), not mismatches, tuple(mismatches))


def run_corpus(directory: Path | None = None) -> list[CaseResult]:
    return [run_case(case) for case in load_cases(directory)]
