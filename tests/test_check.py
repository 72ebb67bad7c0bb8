"""The soundness gates in `check`: apart from the solver, and strict on every proof."""

import ast
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import jointfeas
from jointfeas import FiniteRandomVariable, MomentConstraint, MomentProblem, check, feasibility

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
