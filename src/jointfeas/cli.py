"""Command-line front end.

    jointfeas decide PROBLEM.json [--oracle] [--atom-cap N] [--out PATH]
    jointfeas hidden-variable PROBLEM.json [--atom-cap N] [--out PATH]
    jointfeas inequalities PROBLEM.json [--which all|id,id,...] [--out PATH]
    jointfeas corpus [--json] [--dir PATH]

Exit status: 0 feasible (or success), 1 infeasible (or corpus drift),
2 validation/usage error or a size cap, 3 internal error (a bug, such as
a failed soundness gate).  A cross-check over its own limit is a skipped
row, not an error: ``decide --oracle`` with the oracle past its atom cap
or ray budget reports ``oracle`` as ``{"skipped": <the limit>}`` and
exits by decide's verdict, as ``inequalities`` reports its LP
cross-check past the atom cap.  Reports are canonical JSON on stdout (or
``--out``): a fixed build produces byte-identical reports for identical
inputs.  The bundled corpus directory can be overridden with the
``JOINTFEAS_CORPUS`` environment variable or ``--dir``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback
from pathlib import Path
from typing import Any, Sequence

from .corpus import run_corpus
from .errors import JointfeasError, SizeCapError, ValidationError
from .feasibility import (
    DEFAULT_ATOM_CAP,
    FeasibilityResult,
    _check_atom_cap,
    brute_force_oracle,
    decide,
)
from .files import (
    canonical_dumps,
    encode_exact,
    exact_text,
    load_problem_file,
    render_report,
    serialize_distribution,
    serialize_mass,
)
from .gaussian import _check_tol, complete_correlations, det_inequality_3var, eigenvalue_feasible
from .hidden_variable import (
    construct_deterministic,
    verify_factorization,
    verify_noncontextuality,
)
from .inequalities import CLOSED_FORMS, InequalityReport

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _feasibility_payload(result: FeasibilityResult) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "verdict": result.verdict,
        "provenance": {"module": "feasibility", "method": result.method},
    }
    if result.witness is not None:
        payload["witness"] = serialize_distribution(result.witness)
    if result.certificate is not None:
        payload["certificate"] = [exact_text(c) for c in result.certificate]
        # decide returns a certificate only once its gate has accepted it.
        payload["certificate_verified"] = True
    return payload


def _require_problem(parsed: dict[str, Any], *, allow_distribution: bool) -> Any:
    if parsed["kind"] == "gaussian":
        raise ValidationError("this command handles finite-moment and ghz files only")
    if "problem" in parsed:
        return parsed["problem"]
    if "distribution" in parsed and allow_distribution:
        return None
    if "distribution" in parsed:
        raise ValidationError("this command needs moment constraints, not a distribution")
    raise ValidationError("constraint targets must be rational for the LP engine")


def _atom_cap(args: argparse.Namespace, parsed: dict[str, Any]) -> int:
    """The ``--atom-cap`` flag, else the file's ``options.atom_cap``, else the default."""
    if args.atom_cap is None:
        return parsed.get("atom_cap") or DEFAULT_ATOM_CAP
    _check_atom_cap(args.atom_cap, "--atom-cap")
    return args.atom_cap


def cmd_decide(args: argparse.Namespace) -> int:
    parsed = load_problem_file(args.problem)
    problem = _require_problem(parsed, allow_distribution=False)
    result = decide(problem, atom_cap=_atom_cap(args, parsed))
    payload = _feasibility_payload(result)
    if args.oracle:
        try:
            oracle = brute_force_oracle(problem)
        except SizeCapError as exc:
            payload["oracle"] = {"skipped": str(exc)}
        else:
            payload["oracle"] = {"verdict": oracle.verdict, "agrees": oracle.verdict == result.verdict}
    _emit(render_report("decide", parsed["echo"], payload), args.out)
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _serialize_model(model) -> dict[str, Any]:
    return {
        "deterministic": model.deterministic,
        "lambda_points": [
            {
                "label": pt.label,
                "probability": exact_text(pt.probability),
                "conditional": serialize_mass(pt.conditional),
            }
            for pt in model.points
        ],
    }


def cmd_hidden_variable(args: argparse.Namespace) -> int:
    parsed = load_problem_file(args.problem)
    problem = _require_problem(parsed, allow_distribution=True)
    atom_cap = _atom_cap(args, parsed)
    if problem is None:
        dist = parsed["distribution"]
        payload: dict[str, Any] = {"verdict": "feasible", "source": "explicit distribution"}
    else:
        result = decide(problem, atom_cap=atom_cap)
        payload = _feasibility_payload(result)
        payload["source"] = "feasibility witness"
        if not result.feasible:
            _emit(render_report("hidden-variable", parsed["echo"], payload), args.out)
            return EXIT_INFEASIBLE
        dist = result.witness
    model = construct_deterministic(dist)
    contexts = [[v.name] for v in model.variables]
    payload["model"] = _serialize_model(model)
    payload["provenance"] = {
        "module": "hidden_variable",
        "method": "one lambda point per positive-mass atom",
    }
    payload["verification"] = {
        "factorization_full": verify_factorization(model, "full").ok,
        "factorization_order2": verify_factorization(model, 2).ok,
        "noncontextual": verify_noncontextuality(model, contexts),
        "mixture_matches_exactly": model.mixture().mass == dist.mass,
    }
    _emit(render_report("hidden-variable", parsed["echo"], payload), args.out)
    return EXIT_OK


# The variable count each closed form needs, as its error message words it.
_NEEDS = {3: "exactly three variables", 4: "exactly four variables in the order A, A', B, B'"}


def _determinant_applies(corr) -> bool:
    """Is the matrix in ``correlation_determinant``'s domain (a fully known 3x3)?"""
    return corr.dimension == 3 and corr.fully_known


def _inequality_rows(
    parsed: dict[str, Any], which: list[str], tol: float | None = None
) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = []

    if parsed["kind"] == "gaussian":
        corr = parsed["correlations"]
        selected = which or (
            ["eigenvalue_feasible", "correlation_determinant"]
            if _determinant_applies(corr)
            else ["eigenvalue_feasible"]
        )
        tol = parsed["tol"] if tol is None else tol
        for op in selected:
            if op == "eigenvalue_feasible":
                if not corr.fully_known:
                    completion = complete_correlations(corr, tol)
                    rows.append(
                        {
                            "inequality": "eigenvalue_feasible",
                            "verdict": "satisfied" if completion.feasible else "violated",
                            "lambda_min": completion.lambda_min,
                            "completed": [[x for x in r] for r in completion.completed],
                            "method": completion.method,
                        }
                    )
                else:
                    rep = eigenvalue_feasible(corr, tol)
                    rows.append(
                        {
                            "inequality": "eigenvalue_feasible",
                            "verdict": "satisfied" if rep.feasible else "violated",
                            "lambda_min": rep.lambda_min,
                            "boundary": rep.boundary,
                        }
                    )
            elif op == "correlation_determinant":
                if not _determinant_applies(corr):
                    raise ValidationError(
                        "correlation_determinant needs a fully known 3x3 matrix"
                    )
                # exact entries were validated as rationals at parse time
                e = parsed["exact_entries"]
                report = det_inequality_3var(e[0][1], e[0][2], e[1][2])
                rows.append(_inequality_row(report))
            else:
                raise ValidationError(f"unknown inequality id {op!r} for gaussian files")
        return rows

    names = [v.name for v in parsed["variables"]]
    pinned = {
        tuple(sorted(exponents.items())): target
        for exponents, target, relation in parsed["constraints"]
        if relation == "=="  # a bounded moment does not pin a value
    }
    n = len(names)
    selected = which or [op for op, form in CLOSED_FORMS.items() if form.variables == n]
    for op in selected:
        form = CLOSED_FORMS.get(op)
        if form is None:
            raise ValidationError(f"unknown inequality id {op!r}")
        if n != form.variables:
            raise ValidationError(f"{op} needs {_NEEDS[form.variables]}")
        read = [[names[i] for i in positions] for positions in form.moments()]
        keys = [tuple(sorted((name, 1) for name in moment)) for moment in read]
        missing = [f"E({'*'.join(moment)})" for moment, key in zip(read, keys) if key not in pinned]
        if missing:
            raise ValidationError(f"{op}: missing moments {missing}")
        rows.append(_inequality_row(form.evaluate(*(pinned[key] for key in keys))))

    return rows


def _inequality_row(report: InequalityReport) -> dict[str, Any]:
    return {
        "inequality": report.inequality_id,
        "verdict": report.verdict,
        "slack": encode_exact(report.slack),
        "inputs": {k: encode_exact(v) for k, v in report.inputs.items()},
        "notes": report.notes,
    }


def cmd_inequalities(args: argparse.Namespace) -> int:
    parsed = load_problem_file(args.problem)
    if parsed["kind"] == "ghz":
        raise ValidationError("inequality evaluation expects finite-moment or gaussian files")
    atom_cap = _atom_cap(args, parsed)
    which = [] if args.which in (None, "all") else [s.strip() for s in args.which.split(",")]
    if parsed["kind"] == "finite-moment" and "constraints" not in parsed:
        raise ValidationError("inequality evaluation needs moment constraints")
    rows = _inequality_rows(parsed, which, tol=args.tol)
    module = "gaussian" if parsed["kind"] == "gaussian" else "inequalities"
    payload: dict[str, Any] = {
        "inequalities": rows,
        "provenance": {"module": module, "method": "closed-form evaluation"},
    }
    if parsed["kind"] == "finite-moment":
        if "problem" in parsed:
            try:
                result = decide(parsed["problem"], atom_cap=atom_cap)
            except SizeCapError:
                payload["cross_check"] = {"skipped": "atom cap exceeded"}
            else:
                payload["cross_check"] = {
                    "decide_verdict": result.verdict,
                    "note": "closed-form verdicts need not match joint-distribution "
                    "feasibility unless the inequality is exact for the case",
                }
        else:
            payload["cross_check"] = {"skipped": "non-rational targets"}
    _emit(render_report("inequalities", parsed["echo"], payload), args.out)
    return EXIT_OK


def cmd_corpus(args: argparse.Namespace) -> int:
    directory = Path(args.dir) if args.dir else None
    results = run_corpus(directory)
    if args.json:
        payload = {
            "schema": "jointfeas/corpus-summary/v1",
            "cases": [
                {
                    "id": r.case_id,
                    "anchor": r.anchor,
                    "status": "PASS" if r.passed else "FAIL",
                    "mismatches": list(r.mismatches),
                }
                for r in results
            ],
            "passed": sum(r.passed for r in results),
            "total": len(results),
        }
        _emit(canonical_dumps(payload), args.out)
    else:
        lines = []
        for r in results:
            lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.case_id:42s} {r.anchor}")
            for m in r.mismatches:
                lines.append(f"      {m}")
        lines.append(f"{sum(r.passed for r in results)}/{len(results)} cases passed")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_INFEASIBLE


def _tolerance(text: str) -> float:
    """The ``--tol`` value; argparse turns a refusal into exit 2."""
    try:
        return _check_tol(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="jointfeas",
        description="Exact joint-distribution feasibility, hidden variables, and moment inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide feasibility of a moment problem")
    p.add_argument("problem", help="problem file (finite-moment or ghz kind)")
    p.add_argument("--oracle", action="store_true", help="cross-check with the cone-ray oracle")
    p.add_argument("--atom-cap", type=int, default=None)
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("hidden-variable", help="construct and verify the factoring hidden variable")
    p.add_argument("problem")
    p.add_argument("--atom-cap", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hidden_variable)

    p = sub.add_parser("inequalities", help="evaluate closed-form inequalities on a problem file")
    p.add_argument("problem")
    p.add_argument("--which", default="all", help="comma-separated inequality ids, or 'all'")
    p.add_argument("--atom-cap", type=int, default=None)
    p.add_argument("--tol", type=_tolerance, default=None, help="spectrum tolerance for gaussian files")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_inequalities)

    p = sub.add_parser("corpus", help="run the bundled golden corpus")
    p.add_argument("--json", action="store_true", help="machine-readable summary")
    p.add_argument("--dir", default=None, help="corpus directory override")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_corpus)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit status, argparse's own included."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors and --help end here, not in the caller
        return exc.code
    try:
        return args.func(args)
    except (JointfeasError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR
    except Exception as exc:  # never let a bug read as a verdict (exit 1)
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n{traceback.format_exc()}")
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
