"""The soundness gates in `check`: apart from the solver, and strict on every proof."""

import ast
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import jointfeas
from jointfeas import FiniteRandomVariable, MomentConstraint, MomentProblem, check, cli, feasibility
from jointfeas.files import PROBLEM_SCHEMA

ALLOWED_PACKAGE_MODULES = {"errors", "algebraic"}


def test_check_imports_only_stdlib_numpy_errors_and_algebraic():
    tree = ast.parse(Path(check.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # from . import x names modules; from .x import y names module x
            modules = [a.name for a in node.names] if node.module is None else [node.module]
            assert set(modules) <= ALLOWED_PACKAGE_MODULES, ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            roots = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            for root in (r.split(".")[0] for r in roots):
                assert root == "numpy" or root in sys.stdlib_module_names, ast.unparse(node)


def test_every_verify_certificate_is_one_function():
    # The benchmark tracer patches by identity, so a copy would escape it.
    assert jointfeas.verify_certificate is feasibility.verify_certificate is check.verify_certificate


def test_witness_gate_refuses_a_negative_mass():
    # The total is 1 and E(X) = 0 holds; only the sign test refuses these masses.
    x = FiniteRandomVariable("X", (F(-1), F(0), F(1)))
    problem = MomentProblem((x,), (MomentConstraint.of({"X": 1}, 0),))
    check._checked_witness(problem, {(0,): F(1, 2), (2,): F(1, 2)})
    with pytest.raises(AssertionError, match="negative mass -1 at atom \\(1,\\)"):
        check._checked_witness(problem, {(0,): F(1), (1,): F(-1), (2,): F(1)})


# E(X) is 1/6 at the exact masses; moving 1/S of mass between -1 and 1
# moves it by 2/S, the smallest step at that denominator.
_THIRDS = FiniteRandomVariable("X", (F(-1), F(1, 3), F(1)))
_S = 3 * 10**25 + 1
_EXACT = {(0,): F(1, 4), (1,): F(1, 2), (2,): F(1, 4)}
_UP = {(0,): F(1, 4) - F(1, _S), (1,): F(1, 2), (2,): F(1, 4) + F(1, _S)}
_DOWN = {(0,): F(1, 4) + F(1, _S), (1,): F(1, 2), (2,): F(1, 4) - F(1, _S)}


@pytest.mark.parametrize(
    "relation,refused", [("==", ("up", "down")), ("<=", ("up",)), (">=", ("down",))]
)
def test_witness_gate_compares_each_moment_exactly(relation, refused):
    problem = MomentProblem((_THIRDS,), (MomentConstraint.of({"X": 1}, F(1, 6), relation),))
    check._checked_witness(problem, _EXACT)
    for name, mass, got in (("up", _UP, F(1, 6) + F(2, _S)), ("down", _DOWN, F(1, 6) - F(2, _S))):
        if name in refused:
            shown = "=" if relation == "==" else relation
            message = f"witness violates E(X) {shown} 1/6: got {got.numerator}/{got.denominator}"
            with pytest.raises(AssertionError) as info:
                check._checked_witness(problem, mass)
            assert str(info.value) == message
        else:
            check._checked_witness(problem, mass)


def _counted_gate(monkeypatch) -> list:
    """Count every call of verify_certificate, under each name a jointfeas module gives it."""
    calls = []
    original = check.verify_certificate

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("jointfeas"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "argv,checks", [(["decide"], 1), (["decide", "--oracle"], 2), (["hidden-variable"], 1)]
)
def test_each_proof_is_checked_once_per_solver(argv, checks, monkeypatch, tmp_path):
    # decide's gate, plus the oracle's with --oracle; the report states the gate's acceptance.
    path = tmp_path / "problem.json"
    path.write_text(
        json.dumps(
            {
                "schema": PROBLEM_SCHEMA,
                "kind": "finite-moment",
                "variables": [{"name": n, "support": ["-1", "1"]} for n in "XYZ"],
                "constraints": [{"exponents": {a: 1, b: 1}, "target": "-1/2"} for a, b in ("XY", "YZ", "XZ")]
                + [{"exponents": {n: 1}, "target": "1/5"} for n in "XYZ"],
            }
        )
    )
    calls = _counted_gate(monkeypatch)
    out = tmp_path / "report.json"
    assert cli.run([argv[0], str(path), *argv[1:], "--out", str(out)]) == cli.EXIT_INFEASIBLE
    assert len(calls) == checks
    assert json.loads(out.read_text())["results"]["certificate_verified"] is True


@pytest.mark.parametrize(
    "atom,message",
    [((0, 2), "indexes outside a support"), ((-1, 0), "indexes outside a support"), ((0,), "wrong arity"),
     ((0, 0, 0), "wrong arity")],
)
def test_witness_gate_refuses_an_atom_off_the_lattice(atom, message):
    # The gate is a witness's only validation, so it checks what
    # JointDistribution's constructor would: a negative index would
    # otherwise read another support value.
    x, y = (FiniteRandomVariable(n, (F(-1), F(1))) for n in "XY")
    problem = MomentProblem((x, y), (MomentConstraint.of({"X": 1}, -1),))
    check._checked_witness(problem, {(0, 1): F(1)})
    with pytest.raises(AssertionError, match=message):
        check._checked_witness(problem, {atom: F(1)})
