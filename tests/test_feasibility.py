import itertools
import json
import math
import operator
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jointfeas import (
    FiniteRandomVariable,
    MomentConstraint,
    MomentProblem,
    brute_force_oracle,
    check,
    cli,
    decide,
    expectation,
    feasibility,
    geometry,
    linalg,
    pm_one,
    reduce_then_test,
    verify_certificate,
)
from jointfeas.errors import ConstraintMismatchError, SizeCapError, ValidationError
from jointfeas.feasibility import _constraint_rows
from jointfeas.files import PROBLEM_SCHEMA
from jointfeas.probability import JointDistribution
from jointfeas.simplex import EqualityFeasibility, solve_equality_feasibility

from conftest import random_problem, rational_lp, subprocess_env

F = Fraction


def triple(means, moments, label="", values=("-1", "1")):
    vs = tuple(FiniteRandomVariable(n, tuple(F(v) for v in values)) for n in "XYZ")
    cons = [MomentConstraint.of({n: 1}, m) for n, m in zip("XYZ", means)]
    cons += [
        MomentConstraint.of({a: 1, b: 1}, e)
        for (a, b), e in zip((("X", "Y"), ("Y", "Z"), ("X", "Z")), moments)
    ]
    return MomentProblem(vs, tuple(cons), label=label)


class TestDecide:
    def test_all_minus_half_infeasible(self):
        result = decide(triple([0] * 3, ["-1/2"] * 3))
        assert result.verdict == "infeasible"
        assert result.certificate is not None

    def test_mixed_half_feasible(self):
        result = decide(triple([0] * 3, ["1/2", "-1/2", "-1/2"]))
        assert result.verdict == "feasible"
        w = result.witness
        assert expectation(w, {"X": 1, "Y": 1}) == F(1, 2)
        assert expectation(w, {"X": 1}) == 0

    def test_point_mass_witness(self):
        prob = MomentProblem((pm_one("X"),), (MomentConstraint.of({"X": 1}, 1),))
        result = decide(prob)
        assert result.feasible
        assert dict(result.witness.mass) == {(1,): F(1)}

    def test_three_valued_counterexample_moments(self):
        vs = tuple(
            FiniteRandomVariable(n, (F(-1), F(0), F(1))) for n in "XYZ"
        )
        cons = [MomentConstraint.of({n: 1}, 0) for n in "XYZ"]
        cons += [MomentConstraint.of({n: 2}, "2/3") for n in "XYZ"]
        cons += [
            MomentConstraint.of({a: 1, b: 1}, "-1/3")
            for a, b in (("X", "Y"), ("Y", "Z"), ("X", "Z"))
        ]
        result = decide(MomentProblem(vs, tuple(cons)))
        assert result.feasible
        w = result.witness
        for n in "XYZ":
            assert expectation(w, {n: 2}) == F(2, 3)

    def test_out_of_range_target_fast_path(self):
        prob = MomentProblem((pm_one("X"),), (MomentConstraint.of({"X": 1}, 2),))
        result = decide(prob)
        assert result.verdict == "infeasible"
        assert result.method == "range-check"
        assert verify_certificate(prob, result.certificate)

    def test_range_check_gate_survives_python_O(self):
        # python -O strips assert statements; the soundness gate must not be one
        script = textwrap.dedent(
            """
            import sys
            from jointfeas import MomentConstraint, MomentProblem, check, feasibility, pm_one

            real = check.verify_certificate
            checked = []

            def spy(problem, cert):
                checked.append(real(problem, cert))
                return checked[-1]

            check.verify_certificate = spy
            prob = MomentProblem((pm_one("X"),), (MomentConstraint.of({"X": 1}, 2),))
            result = feasibility.decide(prob)
            check.verify_certificate = lambda problem, cert: False
            try:
                feasibility.decide(prob)
                gate = "skipped"
            except AssertionError:
                gate = "raised"
            print(sys.flags.optimize, result.method, checked, gate)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "range-check", "[True]", "raised"]

    def test_simplex_certification_survives_python_O(self):
        # Every path accepts a result only through explicit exact checks;
        # with asserts stripped, a corrupted final int64 tableau and a
        # float-guide basis that proves nothing must still be rejected,
        # and the certificate gate must still raise.
        script = textwrap.dedent(
            """
            import sys
            from jointfeas import MomentConstraint, MomentProblem, check, feasibility, pm_one, simplex

            names = ("X", "Y", "Z")
            pairs = (("X", "Y"), ("Y", "Z"), ("X", "Z"))

            def triple(pair):
                return MomentProblem(
                    tuple(pm_one(n) for n in names),
                    tuple(
                        [MomentConstraint.of({n: 1}, 0) for n in names]
                        + [MomentConstraint.of({a: 1, b: 1}, pair) for a, b in pairs]
                    ),
                )

            def outcome(result):
                mass = result.witness.mass if result.witness else None
                return result.method, result.verdict, result.certificate, mass

            problems = (triple("-1/2"), triple("-1/3"))
            exact = [feasibility.decide(p) for p in problems]

            # The int64 loop's final tableau corrupted: a negative
            # structural reduced cost in the cost row of the infeasible
            # problem, the value column negated (x_B < 0) on the feasible
            # one.  _farkas and _solution refuse both and the float guide
            # decides.
            real_bland, real_guide = simplex._integer_bland, simplex._float_guide
            guides = []

            def corrupt(tab, n, m):
                final = real_bland(tab, n, m)
                if tab.dtype != object:
                    if tab[m, -1] < 0:
                        tab[m, 0] = -1
                    else:
                        tab[:m, -1] *= -1
                return final

            simplex._integer_bland = corrupt
            simplex._float_guide = lambda *args: guides.append(1) or real_guide(*args)
            corrupted = [feasibility.decide(p) for p in problems]
            read_off_rejected = len(guides)
            simplex._integer_bland = real_bland

            # Over the int64 bound, a guide basis that proves nothing
            # (the all-artificial start) goes to the Python-int loop.
            real_loop = simplex._exact_loop
            fallbacks = []

            def loop(tab, *args):
                if tab.dtype == object:
                    fallbacks.append(args)
                return real_loop(tab, *args)

            simplex._INT64_SAFE = 0
            simplex._exact_loop = loop
            simplex._float_guide = lambda tab, n, m: (list(range(n, n + m)), 0)
            forced = [feasibility.decide(p) for p in problems]
            certify_rejected = len(fallbacks)
            same = [outcome(a) == outcome(b) == outcome(c) for a, b, c in zip(exact, corrupted, forced)]

            check.verify_certificate = lambda problem, cert: False
            try:
                feasibility.decide(problems[0])
                gate = "skipped"
            except AssertionError:
                gate = "raised"
            print(sys.flags.optimize, *(r.method for r in exact), *(r.verdict for r in exact),
                  read_off_rejected, certify_rejected, *same, gate)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "1", "simplex", "simplex", "infeasible", "feasible", "2", "2", "True", "True", "raised"
        ]

    def test_certificate_gate_overflow_survives_python_O(self):
        # Each coefficient fits int64 but the functional at an atom does
        # not; the bound check must send both to Python ints under -O.
        script = textwrap.dedent(
            """
            import sys
            from fractions import Fraction as F
            from jointfeas import FiniteRandomVariable, MomentConstraint, MomentProblem, pm_one
            from jointfeas.feasibility import verify_certificate

            big = 2**62
            # 2^62+1 + (2^62+1) X: 0 at X=-1, 2^63+2 at X=1; target value -(2^62+1)
            valid = verify_certificate(
                MomentProblem((pm_one("X"),), (MomentConstraint.of({"X": 1}, -2),)),
                [F(big + 1), F(big + 1)],
            )
            # -(2^62+1) - 2^62 X on X in {1, 2}: -2^63-1 and -2^63-2^62-1,
            # both of which wrap to nonnegative values in int64
            support = FiniteRandomVariable("X", (F(1), F(2)))
            invalid = verify_certificate(
                MomentProblem((support,), (MomentConstraint.of({"X": 1}, 0),)),
                [F(-big), F(-big - 1)],
            )
            print(sys.flags.optimize, valid, invalid)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=subprocess_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "True", "False"]

    @pytest.mark.parametrize("solver", [decide, brute_force_oracle])
    def test_gates_catch_a_corrupt_row_builder(self, solver, monkeypatch, tmp_path):
        # Both solvers read their rows from the row cache; the witness and
        # certificate gates must not, or a fault there would pass itself.
        # The cached matrix is read-only, so the fault goes into a copy.
        real = feasibility._cached_rows

        def corrupt(structure):
            matrix, den = real(structure)
            matrix = matrix.copy()
            matrix[3, 1] += 1  # the XY monomial at atom (0, 0, 1): 1 becomes 2
            return matrix, den

        monkeypatch.setattr(feasibility, "_cached_rows", corrupt)
        with pytest.raises(AssertionError, match="witness violates"):
            solver(triple([0] * 3, ["1/2", "-1/2", "-1/2"]))
        with pytest.raises(AssertionError, match="invalid .*certificate"):
            solver(triple([0] * 3, ["-1/2"] * 3))

        # A normalization row of 2s, but 1 at atom (0, 0): masses meeting
        # it need not sum to 1, and the gate, not JointDistribution's
        # input validation (exit 2), must refuse them.
        def unnormalized(structure):
            matrix, den = real(structure)
            matrix = matrix.copy()
            matrix[-1] = 2
            matrix[-1, 0] = 1
            return matrix, den

        monkeypatch.setattr(feasibility, "_cached_rows", unnormalized)
        with pytest.raises(AssertionError, match="witness masses sum to"):
            solver(MomentProblem((pm_one("X"), pm_one("Y")), (MomentConstraint.of({"X": 1}, 0),)))
        problem_file = {
            "schema": PROBLEM_SCHEMA,
            "kind": "finite-moment",
            "variables": [{"name": n, "support": ["-1", "1"]} for n in "XY"],
            "constraints": [{"exponents": {"X": 1}, "target": "0"}],
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem_file))
        assert cli.run(["decide", str(path)]) == cli.EXIT_INTERNAL == 3

    def test_atom_cap(self):
        vs = tuple(pm_one(f"X{i}") for i in range(12))
        prob = MomentProblem(vs, (MomentConstraint.of({"X0": 1}, 0),))
        with pytest.raises(SizeCapError):
            decide(prob, atom_cap=1024)

    @pytest.mark.parametrize("solver", [decide, brute_force_oracle])
    @pytest.mark.parametrize("cap", [True, False, 2.5, 4.0, 0, -3, "8", None])
    def test_atom_cap_must_be_a_positive_int(self, solver, cap):
        # True would read as a cap of 1 and 2.5 would pass the size test.
        prob = MomentProblem((pm_one("X"),), (MomentConstraint.of({"X": 1}, 0),))
        with pytest.raises(ValidationError, match="atom_cap must be a positive integer"):
            solver(prob, atom_cap=cap)
        assert solver(prob, atom_cap=2).feasible

    def test_duplicate_constraint_rejected(self):
        with pytest.raises(ValidationError):
            MomentProblem(
                (pm_one("X"),),
                (
                    MomentConstraint.of({"X": 1}, 0),
                    MomentConstraint.of({"X": 1}, "1/2"),
                ),
            )

    def test_higher_order_needs_flag(self):
        with pytest.raises(ValidationError):
            MomentProblem((pm_one("X"),), (MomentConstraint.of({"X": 3}, 0),))
        MomentProblem(
            (pm_one("X"),),
            (MomentConstraint.of({"X": 3}, 0),),
            allow_higher_order=True,
        )


class TestCertificates:
    def test_produced_certificate_verifies(self):
        prob = triple([0] * 3, ["-1/2"] * 3)
        result = decide(prob)
        assert verify_certificate(prob, result.certificate)

    def test_zero_vector_is_not_a_certificate(self):
        prob = triple([0] * 3, ["-1/2"] * 3)
        assert not verify_certificate(prob, [F(0)] * 7)

    def test_certificate_fails_on_feasible_problem(self):
        infeasible = triple([0] * 3, ["-1/2"] * 3)
        cert = decide(infeasible).certificate
        feasible = triple([0] * 3, ["1/2", "-1/2", "-1/2"])
        assert not verify_certificate(feasible, cert)

    def test_dimension_mismatch(self):
        prob = triple([0] * 3, ["-1/2"] * 3)
        with pytest.raises(ValidationError):
            verify_certificate(prob, [F(0)] * 3)


class TestOracle:
    def test_agrees_on_spec_examples(self):
        for prob in (
            triple([0] * 3, ["-1/2"] * 3),
            triple([0] * 3, ["1/2", "-1/2", "-1/2"]),
        ):
            assert brute_force_oracle(prob).verdict == decide(prob).verdict

    def test_empty_constraints_feasible(self):
        prob = MomentProblem((pm_one("X"), pm_one("Y")), ())
        result = brute_force_oracle(prob)
        assert result.feasible
        assert sum(result.witness.mass.values()) == 1

    def test_out_of_range_infeasible(self):
        prob = MomentProblem((pm_one("X"),), (MomentConstraint.of({"X": 1}, 2),))
        assert brute_force_oracle(prob).verdict == "infeasible"

    def test_randomized_agreement(self, rng):
        for _ in range(120):
            prob = random_problem(rng)
            assert brute_force_oracle(prob).verdict == decide(prob).verdict


class TestBoundedMoments:
    """Inequality-bounded moments, the slack-column extension."""

    def test_lower_bounded_covariance_feasible(self):
        vs = (pm_one("X"), pm_one("Y"))
        prob = MomentProblem(
            vs,
            (
                MomentConstraint.of({"X": 1}, 0),
                MomentConstraint.of({"Y": 1}, 0),
                MomentConstraint.of({"X": 1, "Y": 1}, "1/2", ">="),
            ),
        )
        result = decide(prob)
        assert result.feasible
        assert expectation(result.witness, {"X": 1, "Y": 1}) >= F(1, 2)
        assert brute_force_oracle(prob).verdict == "feasible"

    def test_contradictory_bounds_infeasible(self):
        vs = (pm_one("X"), pm_one("Y"))
        prob = MomentProblem(
            vs,
            (
                MomentConstraint.of({"X": 1, "Y": 1}, "1/2", ">="),
                MomentConstraint.of({"X": 1, "Y": 1}, "-1/2", "<="),
            ),
        )
        result = decide(prob)
        assert result.verdict == "infeasible"
        assert verify_certificate(prob, result.certificate)
        assert brute_force_oracle(prob).verdict == "infeasible"

    def test_unachievable_bound_fast_path(self):
        prob = MomentProblem(
            (pm_one("X"),), (MomentConstraint.of({"X": 1}, 2, ">="),)
        )
        result = decide(prob)
        assert result.verdict == "infeasible"
        assert result.method == "range-check"
        assert verify_certificate(prob, result.certificate)
        # the mirrored bound is achievable: E(X) <= 2 always holds
        relaxed = MomentProblem(
            (pm_one("X"),), (MomentConstraint.of({"X": 1}, 2, "<="),)
        )
        assert decide(relaxed).feasible

    def test_certificate_sign_conditions(self):
        prob = MomentProblem(
            (pm_one("X"),),
            (
                MomentConstraint.of({"X": 1}, "1/2", ">="),
                MomentConstraint.of({"X": 1}, "-1/2", "<="),
            ),
        )
        result = decide(prob)
        assert result.verdict == "infeasible"
        # flipping the sign on a bounded coefficient invalidates it
        cert = list(result.certificate)
        flipped = [-c for c in cert[:-1]] + [cert[-1]]
        assert not verify_certificate(prob, flipped)

    def test_same_exponents_different_relations_allowed(self):
        vs = (pm_one("X"), pm_one("Y"))
        prob = MomentProblem(
            vs,
            (
                MomentConstraint.of({"X": 1, "Y": 1}, "-1/4", ">="),
                MomentConstraint.of({"X": 1, "Y": 1}, "1/4", "<="),
            ),
        )
        result = decide(prob)
        assert result.feasible
        value = expectation(result.witness, {"X": 1, "Y": 1})
        assert F(-1, 4) <= value <= F(1, 4)

    def test_reduce_then_test_rejects_bounds(self):
        names = ("A", "Ap", "B", "Bp")
        vs = tuple(pm_one(n) for n in names)
        prob = MomentProblem(
            vs, (MomentConstraint.of({"A": 1, "B": 1}, 0, ">="),)
        )
        identity = {F(-1): -1, F(1): 1}
        with pytest.raises(ValidationError):
            reduce_then_test(prob, {n: identity for n in names})

    def test_randomized_agreement_with_bounds(self, rng):
        relations = ("==", "<=", ">=")
        for _ in range(60):
            base = random_problem(rng)
            constraints = tuple(
                MomentConstraint(c.exponents, c.target, rng.choice(relations))
                for c in base.constraints
            )
            prob = MomentProblem(base.variables, constraints)
            assert decide(prob).verdict == brute_force_oracle(prob).verdict

    @pytest.mark.parametrize("bound,verdict", [("-1/2", "feasible"), ("-3/4", "infeasible")])
    def test_oracle_merges_shared_columns_beside_a_slack(self, bound, verdict):
        # No constraint mentions Y, so atoms (x, -1) and (x, 1) share a moment
        # vector; the oracle merges them and keeps the E(X) <= bound slack.
        vs = (FiniteRandomVariable("X", (F(-1), F(0), F(1))), pm_one("Y"))
        prob = MomentProblem(
            vs,
            (
                MomentConstraint.of({"X": 1}, bound, "<="),
                MomentConstraint.of({"X": 2}, "1/2"),
            ),
        )
        oracle, lp = brute_force_oracle(prob), decide(prob)
        assert oracle.verdict == lp.verdict == verdict
        if oracle.feasible:
            # each merged class is represented by its first atom, Y = -1
            assert {atom[1] for atom in oracle.witness.mass} == {0}
            assert expectation(oracle.witness, {"X": 1}) <= F(bound)
        else:
            assert verify_certificate(prob, oracle.certificate)

    @pytest.mark.parametrize("bound", ["-1/2", "-3/4"])
    @pytest.mark.parametrize("square", ["1/2", "2"])
    def test_oracle_certificate_from_a_lineality_vector_passes_the_gate(self, monkeypatch, bound, square):
        # As above, but with X on (-1, 1): X**2 is 1 on every atom, so the
        # generators span a plane and the oracle's separator for any other
        # E(X**2) is a lineality vector of their dual, zero on each of them.
        # Its coordinates follow the LP rows, normalization last, so it is
        # the certificate as it stands.
        prob = MomentProblem(
            (pm_one("X"), pm_one("Y")),
            (MomentConstraint.of({"X": 1}, bound, "<="), MomentConstraint.of({"X": 2}, square)),
        )
        seen = []
        real = feasibility.cone_membership
        monkeypatch.setattr(feasibility, "cone_membership", lambda g, t: seen.append(g) or real(g, t))
        oracle = brute_force_oracle(prob)
        assert oracle.verdict == decide(prob).verdict == "infeasible"
        (generators,) = seen
        assert all(sum(map(operator.mul, oracle.certificate, g)) == 0 for g in generators)
        assert verify_certificate(prob, oracle.certificate)


rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
# Numerators above 10**10: cubed, they overflow int64 and take the object path.
large = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**12))


@st.composite
def moment_problems(draw, values=rationals):
    names = [f"V{i}" for i in range(draw(st.integers(1, 3)))]
    supports = [
        sorted(draw(st.lists(values, min_size=1, max_size=3, unique=True))) for _ in names
    ]
    constraint = st.tuples(
        st.dictionaries(st.sampled_from(names), st.integers(1, 3), min_size=1),
        rationals,
        st.sampled_from(["==", "<=", ">="]),
    )
    specs = draw(
        st.lists(constraint, max_size=4, unique_by=lambda s: (tuple(sorted(s[0].items())), s[2]))
    )
    return MomentProblem(
        tuple(FiniteRandomVariable(n, tuple(s)) for n, s in zip(names, supports)),
        tuple(MomentConstraint.of(e, t, r) for e, t, r in specs),
        allow_higher_order=True,
    )


def reference_rows(problem):
    """LP rows built entry by entry from monomial_value, one slack per bound."""
    atoms = list(problem.atom_space())
    bounded = [i for i, c in enumerate(problem.constraints) if c.relation != "=="]
    rows = []
    for i, c in enumerate(problem.constraints):
        slack = F(1) if c.relation == "<=" else F(-1)
        rows.append(
            [problem.monomial_value(c, atom) for atom in atoms]
            + [slack if j == i else F(0) for j in bounded]
        )
    rows.append([F(1)] * len(atoms) + [F(0)] * len(bounded))
    return rows, [c.target for c in problem.constraints] + [F(1)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(moment_problems(), moment_problems(st.one_of(rationals, large))))
def test_constraint_rows_match_monomial_values(problem):
    matrix, den, rhs = _constraint_rows(problem)
    assert isinstance(den, int) and den > 0
    rows = [[F(v, den) for v in row] for row in matrix.tolist()]
    assert (rows, rhs) == reference_rows(problem)


def test_constraint_rows_use_python_ints_past_int64():
    small = MomentProblem((pm_one("X"),), (MomentConstraint.of({"X": 3}, 0),), allow_higher_order=True)
    big = FiniteRandomVariable("X", (F(-(10**7)), F(10**7, 3)))
    large_rows = MomentProblem((big,), (MomentConstraint.of({"X": 3}, 0),), allow_higher_order=True)
    assert _constraint_rows(small)[0].dtype == np.int64
    matrix, den, _ = _constraint_rows(large_rows)
    assert matrix.dtype == object and den == 27
    assert matrix.tolist() == [[-(27 * 10**21), 10**21], [27, 27]]


def half_support_problem(n, pair):
    """Variables on (-1, 1/2, 2) with means 1/2, squares 7/4 and every pair moment ``pair``.

    The row denominators are 1 (normalization), 2 (means) and 4 (squares
    and pairs).  Independent uniform variables meet pair = 1/4; no
    distribution meets pair = -2, since |E(XY)| <= 7/4.
    """
    names = [f"X{i}" for i in range(n)]
    support = (F(-1), F(1, 2), F(2))
    exponents = [{v: 1} for v in names] + [{v: 2} for v in names]
    exponents += [{a: 1, b: 1} for a, b in itertools.combinations(names, 2)]
    targets = [F(1, 2)] * n + [F(7, 4)] * n + [pair] * (len(exponents) - 2 * n)
    return MomentProblem(
        tuple(FiniteRandomVariable(v, support) for v in names),
        tuple(MomentConstraint.of(e, t) for e, t in zip(exponents, targets)),
    )


@pytest.mark.parametrize("pair,verdict", [(F(1, 4), "feasible"), (F(-2), "infeasible")])
def test_rows_of_every_denominator_share_one_den(pair, verdict):
    # Rows over 1, 2 and 4 go over den = 4; every consumer of the one
    # denominator answers what the simplex answers on the rational rows.
    problem = half_support_problem(2, pair)
    matrix, den, rhs = _constraint_rows(problem)
    assert den == 4 and matrix[-1].tolist() == [4] * 9
    rows = [[F(v, den) for v in row] for row in matrix.tolist()]
    assert (rows, rhs) == reference_rows(problem)
    lp = solve_equality_feasibility(*rational_lp(rows, rhs))
    assert solve_equality_feasibility(matrix, rhs, den) == lp
    assert lp.feasible == (verdict == "feasible")

    result = decide(problem)
    assert result.verdict == verdict
    if lp.feasible:
        atoms = list(problem.atom_space())
        assert result.witness.mass == {atoms[j]: x for j, x in lp.solution.items()}
    else:
        assert result.certificate == lp.farkas
    oracle = brute_force_oracle(problem)
    assert oracle.verdict == verdict
    if oracle.feasible:
        masses = [oracle.witness.mass.get(a, 0) for a in problem.atom_space()]
        assert [sum(map(operator.mul, row, masses)) for row in rows] == rhs
    else:
        u = oracle.certificate
        assert all(sum(map(operator.mul, u, column)) >= 0 for column in zip(*rows))
        assert sum(map(operator.mul, u, rhs)) < 0

    # reduce_then_test derives E(f(X)) (determined: f is a function of X,
    # and 1, X, X**2 span every function on three values) and finds
    # E(f(X)f(Y)) undetermined, as a solve over the rational rows does.
    problem = half_support_problem(4, pair)
    sign = {F(-1): -1, F(1, 2): 1, F(2): 1}
    reduced = reduce_then_test(problem, {v: sign for v in problem.names})
    matrix, den, rhs = _constraint_rows(problem)
    columns = [[F(v, den) for v in column] for column in matrix.T.tolist()]
    atoms = [[sign[v.support[i]] for v, i in zip(problem.variables, atom)] for atom in problem.atom_space()]
    wanted = {f"E(f({v}))": [atom[i] for atom in atoms] for i, v in enumerate(problem.names)}
    wanted.update(
        (f"E(f({a})f({b}))", [atom[i] * atom[j] for atom in atoms])
        for (i, a), (j, b) in itertools.combinations(enumerate(problem.names), 2)
    )
    solved = dict(zip(wanted, linalg.solve(columns, list(wanted.values()))))
    assert reduced.derived == {k: sum(map(operator.mul, lam, rhs)) for k, lam in solved.items() if lam}
    assert set(reduced.missing) == {k for k, lam in solved.items() if lam is None} != set()
    assert reduced.verdict == "underdetermined"


def reference_verify_certificate(problem, certificate):
    """The certificate check in Fraction arithmetic, atom by atom."""
    m = len(problem.constraints)
    cert = [F(c) for c in certificate]
    for c, w in zip(problem.constraints, cert):
        if (c.relation == "<=" and w < 0) or (c.relation == ">=" and w > 0):
            return False
    if sum((c.target * w for c, w in zip(problem.constraints, cert)), F(0)) + cert[m] >= 0:
        return False
    return all(
        cert[m] + sum((w * problem.monomial_value(c, atom) for c, w in zip(problem.constraints, cert)), F(0))
        >= 0
        for atom in problem.atom_space()
    )


@st.composite
def certificates(draw):
    """A problem and a candidate certificate, valid or not."""
    problem = draw(moment_problems(st.one_of(rationals, large)))
    m = len(problem.constraints)
    mode = draw(st.sampled_from(["random", "tight", "decided"]))
    if mode == "decided":
        result = decide(problem)
        if result.certificate is not None:
            cert = list(result.certificate)
            if draw(st.booleans()):
                cert[draw(st.integers(0, m))] += draw(rationals)
            return problem, cert
    weights = draw(st.lists(st.one_of(rationals, large), min_size=m, max_size=m))
    if mode == "random":
        return problem, weights + [draw(st.one_of(rationals, large))]
    # combined target value just below 0: the atoms decide
    constant = sum((c.target * w for c, w in zip(problem.constraints, weights)), F(0))
    return problem, weights + [-constant - draw(st.builds(F, st.integers(1, 4), st.integers(1, 9)))]


@settings(max_examples=400, deadline=None)
@given(certificates())
def test_integer_certificate_gate_matches_fraction_reference(case):
    problem, cert = case
    assert verify_certificate(problem, cert) == reference_verify_certificate(problem, cert)


def test_certificate_gate_spans_chunks(monkeypatch):
    # 2**10 atoms in chunks of 100; every target is 2, out of range on purpose.
    variables = tuple(pm_one(f"X{i}") for i in range(10))
    prob = MomentProblem(variables, tuple(MomentConstraint.of({v.name: 1}, 2) for v in variables))
    monkeypatch.setattr(check, "_CHUNK", 100)
    # 10 - sum(X) >= 0 on every atom, and its target value -10 is negative
    assert verify_certificate(prob, [F(-1)] * 10 + [F(10)])
    # 9 - sum(X) is negative only at the all-ones atom, the last of the last chunk
    assert not verify_certificate(prob, [F(-1)] * 10 + [F(9)])


def unravel_verify_certificate(problem, certificate):
    """The certificate check as one unravel and one gather per factor, 2**16 atoms at a time, over the whole lattice."""
    m = len(problem.constraints)
    cert = [F(c) for c in certificate]
    for c, w in zip(problem.constraints, cert):
        if (c.relation == "<=" and w < 0) or (c.relation == ">=" and w > 0):
            return False
    if sum((c.target * w for c, w in zip(problem.constraints, cert)), F(0)) + cert[m] >= 0:
        return False
    scale = math.lcm(*[w.denominator for w in cert])
    position = {v.name: i for i, v in enumerate(problem.variables)}
    monomials = []
    for c, w in zip(problem.constraints, cert):
        if w:
            factors, den = check._monomial_tables(problem.variables, [(position[n], k) for n, k in c.exponents])
            monomials.append((w.numerator * (scale // w.denominator), den, factors))
    common = math.lcm(*[den for _, den, _ in monomials])
    base = cert[m].numerator * (scale // cert[m].denominator) * common
    weights = [(w * (common // den), factors) for w, den, factors in monomials]
    bound = abs(base) + sum(abs(w) * math.prod(max(1, *map(abs, t)) for _, t in factors) for w, factors in weights)
    dtype = np.int64 if bound < 2**63 else object
    terms = [(w, [(i, np.array(t, dtype)) for i, t in factors]) for w, factors in weights]
    shape = tuple(len(v.support) for v in problem.variables)
    count = math.prod(shape)
    for start in range(0, count, 1 << 16):
        index = np.unravel_index(np.arange(start, min(start + (1 << 16), count)), shape)
        value = np.full(len(index[0]), base, dtype)
        for w, factors in terms:
            term = np.full(len(index[0]), w, dtype)
            for i, table in factors:
                term *= table[index[i]]
            value += term
        if (value < 0).any():
            return False
    return True


def pm_pairs(n, rho):
    """n +-1 variables with zero means and every pair moment rho."""
    variables = tuple(pm_one(f"X{i:02d}") for i in range(n))
    constraints = [MomentConstraint.of({v.name: 1}, 0) for v in variables]
    constraints += [MomentConstraint.of({a.name: 1, b.name: 1}, rho) for a, b in itertools.combinations(variables, 2)]
    return MomentProblem(variables, tuple(constraints))


@pytest.mark.parametrize("chunk", [None, 3000])
def test_certificate_gate_above_one_chunk_matches_unravel_reference(chunk, monkeypatch):
    # 2**17 atoms.  (sum X)**2 = 17 + 2 sum XiXj is odd squared, so at least 1.
    if chunk:
        monkeypatch.setattr(check, "_CHUNK", chunk)
    problem = pm_pairs(17, F(-1, 8))
    for norm, valid in ((17, True), (16, True), (15, False)):
        cert = [F(0)] * 17 + [F(2)] * 136 + [F(norm)]
        assert verify_certificate(problem, cert) is unravel_verify_certificate(problem, cert) is valid


@pytest.mark.parametrize("chunk", [1, 2, 5, 1 << 16])
@pytest.mark.parametrize("scale", [1, 2**70], ids=["int64", "object"])
def test_certificate_gate_on_partial_lattices_matches_fraction_reference(chunk, scale, monkeypatch):
    # Up to 5 variables, each constraint on at most 3 of them, so many
    # certificates leave variables untouched; 2**70 forces object dtype.
    monkeypatch.setattr(check, "_CHUNK", chunk)
    rng = random.Random(chunk + scale)
    for _ in range(40):
        variables = tuple(
            FiniteRandomVariable(f"V{i}", tuple(sorted(rng.sample(RANGE_POOL, rng.randint(1, 3)))))
            for i in range(rng.randint(2, 5))
        )
        exponent_maps = {}
        for _ in range(rng.randint(1, 4)):
            chosen = rng.sample([v.name for v in variables], rng.randint(1, min(3, len(variables))))
            exponent_maps[tuple(sorted(chosen))] = {n: rng.randint(1, 3) for n in chosen}
        maps = list(exponent_maps.values())
        weights = [scale * F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in maps]
        if not any(weights):
            continue
        unit = MomentProblem(variables, tuple(MomentConstraint.of(e, 0) for e in maps), allow_higher_order=True)
        lowest = min(
            sum((w * unit.monomial_value(c, atom) for c, w in zip(unit.constraints, weights)), F(0))
            for atom in unit.atom_space()
        )
        delta = rng.choice([F(0), F(1, 7), F(-1, 7)])
        norm = -lowest + delta
        # targets 0 but one, chosen so the constant term is -1/3
        j = next(j for j, w in enumerate(weights) if w)
        targets = [F(0)] * len(maps)
        targets[j] = (-norm - F(1, 3)) / weights[j]
        problem = MomentProblem(
            variables, tuple(MomentConstraint.of(e, t) for e, t in zip(maps, targets)), allow_higher_order=True
        )
        cert = weights + [norm]
        assert verify_certificate(problem, cert) is reference_verify_certificate(problem, cert) is (delta >= 0)


def test_certificate_gate_slices_a_long_axis():
    # X takes 200,000 values and Y is +-1: the blocks are runs along X,
    # never one X value at a time.  X + XY = X(1 + Y) >= 0, and the constant is -1.
    x = FiniteRandomVariable("X", tuple(F(i) for i in range(200_000)))
    problem = MomentProblem(
        (x, pm_one("Y")),
        (MomentConstraint.of({"X": 1}, -1), MomentConstraint.of({"Y": 1}, 0), MomentConstraint.of({"X": 1, "Y": 1}, 0)),
    )
    valid, invalid = [F(1), F(0), F(1), F(0)], [F(1), F(0), F(1), F(-1)]
    gate, reference = [], []
    for _ in range(5):
        start = time.perf_counter()
        assert verify_certificate(problem, valid) and not verify_certificate(problem, invalid)
        gate.append(time.perf_counter() - start)
        start = time.perf_counter()
        assert unravel_verify_certificate(problem, valid) and not unravel_verify_certificate(problem, invalid)
        reference.append(time.perf_counter() - start)
    assert min(gate) <= min(reference)


def test_certificate_gate_spans_only_the_touched_axes(monkeypatch):
    # 100**20 atoms, of which the certificates touch the 2 * 100 of X00 and X01.
    variables = (pm_one("X00"), pm_one("X01")) + tuple(
        FiniteRandomVariable(f"X{i:02d}", tuple(map(F, range(100)))) for i in range(2, 20)
    )
    problem = MomentProblem(
        variables,
        (
            MomentConstraint.of({"X00": 1}, -5),
            MomentConstraint.of({"X01": 1}, 0),
            MomentConstraint.of({"X00": 1, "X01": 1}, 0),
            MomentConstraint.of({"X01": 1, "X02": 1}, 0),
            MomentConstraint.of({"X02": 1}, 0),
        ),
    )
    monkeypatch.setattr(check, "_CHUNK", 1)
    assert verify_certificate(problem, [F(1), F(0), F(0), F(0), F(0), F(1)])  # X00 + 1 >= 0, constant -4
    assert verify_certificate(problem, [F(1), F(1), F(1), F(0), F(0), F(1)])  # (1 + X00)(1 + X01) >= 0
    assert not verify_certificate(problem, [F(1), F(1), F(1), F(0), F(0), F(1, 2)])  # -1/2 at (-1, 1)
    # Three axes: X00 + 1 + X02 (X01 + 1) / 99 >= 0, but with 1/2 for the 1 it is -1/2 where X00 = -1, X02 = 0
    assert verify_certificate(problem, [F(1), F(0), F(0), F(1, 99), F(1, 99), F(1)])
    assert not verify_certificate(problem, [F(1), F(0), F(0), F(1, 99), F(1, 99), F(1, 2)])


def test_range_check_on_a_large_lattice_builds_no_rows(monkeypatch):
    def no_rows(structure):
        raise AssertionError("rows built for a range-check verdict")

    monkeypatch.setattr(feasibility, "_build_rows", no_rows)
    variables = tuple(pm_one(f"X{i:02d}") for i in range(20))
    constraints = (MomentConstraint.of({"X00": 1}, 2),)
    constraints += tuple(MomentConstraint.of({v.name: 1}, 0) for v in variables[1:])
    result = decide(MomentProblem(variables, constraints))
    assert result.method == "range-check"
    assert result.certificate == (F(-1),) + (F(0),) * 19 + (F(1),)


def test_range_table_is_built_once_per_structure():
    feasibility._range_table.cache_clear()
    first, second = triple([0] * 3, ["1/2"] * 3), triple([0] * 3, ["-1/2"] * 3)
    assert decide(first).feasible and not decide(second).feasible
    info = feasibility._range_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert feasibility._range_table(feasibility._row_structure(first)) == ((-1, 1, 1),) * 6


RANGE_POOL = [
    F(-3), F(-2), F(-3, 2), F(-1), F(-2, 3), F(-1, 2), F(0), F(1, 3), F(1, 2), F(3, 4), F(1), F(5, 3), F(2)
]


def random_range_problem(rng):
    """Supports with mixed denominators, negatives and 0; exponents up to 4."""
    variables = tuple(
        FiniteRandomVariable(f"V{i}", tuple(sorted(rng.sample(RANGE_POOL, rng.randint(1, 4)))))
        for i in range(rng.randint(1, 3))
    )
    exponent_maps = {}
    for _ in range(rng.randint(1, 3)):
        chosen = rng.sample([v.name for v in variables], rng.randint(1, len(variables)))
        exps = {n: rng.randint(1, 4) for n in chosen}
        exponent_maps[tuple(sorted(exps.items()))] = exps
    constraints = tuple(MomentConstraint.of(e, 0) for e in exponent_maps.values())
    return MomentProblem(variables, constraints, allow_higher_order=True)


@pytest.mark.parametrize("shape", [(2,), (3, 2), (2, 3, 4), (2,) * 8])
def test_atoms_unravel_like_atom_space(shape):
    lattice = list(itertools.product(*(range(s) for s in shape)))
    picked = sorted(random.Random(len(lattice)).sample(range(len(lattice)), min(5, len(lattice))))
    assert feasibility._atoms(shape, picked) == [lattice[j] for j in picked]
    assert feasibility._atoms(shape, []) == []


def test_witness_read_off_matches_the_column_scan(monkeypatch, rng):
    # decide hands the witness gate the mass dict, in the same order, that
    # the per-column comprehension {atom(j): x for x > 0} built.
    seen = []
    real = check._checked_witness

    def spy(problem, mass):
        seen.append(list(mass.items()))
        return real(problem, mass)

    monkeypatch.setattr(check, "_checked_witness", spy)
    checked = 0
    for _ in range(150):
        problem = random_problem(rng)
        seen.clear()
        if decide(problem).method != "simplex" or not seen:
            continue
        matrix, den, rhs = _constraint_rows(problem)
        solution = solve_equality_feasibility(matrix, rhs, den).solution
        # The reference reads a dense solution, one entry per LP column
        # (slacks last), which solves the rows exactly.
        dense = [solution.get(j, F(0)) for j in range(matrix.shape[1])]
        assert [sum(F(v, den) * x for v, x in zip(row, dense)) for row in matrix.tolist()] == rhs
        shape = tuple(len(v.support) for v in problem.variables)
        expected = {
            tuple(int(i) for i in np.unravel_index(j, shape)): x
            for j, x in enumerate(dense[: problem.atom_count()])
            if x > 0
        }
        assert seen == [list(expected.items())]
        checked += 1
    assert checked > 20


# Each method and the name its gate reports.
GATE_NAMES = {"range-check": "range check", "simplex": "simplex", "cone-rays": "cone oracle"}


def test_every_verdict_passes_the_one_finisher_once(monkeypatch, rng):
    # Range check, simplex and cone oracle, both verdicts each (the range
    # check proves only infeasibility): each result is built by exactly
    # one _proved call, which runs exactly one gate.
    proved, gates = [], []
    real_proved = feasibility._proved
    real_witness, real_certificate = check._checked_witness, check._checked_certificate
    monkeypatch.setattr(feasibility, "_proved", lambda *a, **k: proved.append(a[1]) or real_proved(*a, **k))
    monkeypatch.setattr(check, "_checked_witness", lambda *a: gates.append("witness") or real_witness(*a))
    monkeypatch.setattr(check, "_checked_certificate", lambda *a: gates.append(a[2]) or real_certificate(*a))
    problems = [random_problem(rng) for _ in range(60)]
    problems += [triple([0] * 3, ["-1/2"] * 3), triple([0] * 3, ["1/2"] * 3), triple([0] * 3, [2, 0, 0])]
    seen = set()
    for problem in problems:
        for solve in (decide, brute_force_oracle):
            proved.clear()
            gates.clear()
            result = solve(problem)
            assert proved == [result.method]
            assert gates == ["witness" if result.feasible else GATE_NAMES[result.method]]
            seen.add((result.method, result.verdict))
    assert seen == {
        ("range-check", "infeasible"),
        ("simplex", "feasible"),
        ("simplex", "infeasible"),
        ("cone-rays", "feasible"),
        ("cone-rays", "infeasible"),
    }


@pytest.mark.parametrize("method,gate", GATE_NAMES.items())
def test_a_solver_without_a_proof_fails_its_gate(method, gate):
    problem = triple([0] * 3, ["-1/2"] * 3)
    with pytest.raises(AssertionError, match=f"^{gate} returned neither a witness nor a certificate$"):
        feasibility._proved(problem, method, {})
    with pytest.raises(AssertionError, match=f"^{gate} produced an invalid infeasibility certificate$"):
        feasibility._proved(problem, method, {}, certificate=(0, 0, 0, 0, 0, 0, 1))


def test_problems_share_integer_support_tables():
    # Built once per distinct support, not once per problem or per call.
    first, second = triple([0] * 3, ["1/2"] * 3), triple([0] * 3, ["-1/2"] * 3)
    assert first._supports == ((1, (-1, 1)),) * 3
    assert all(a is b for a, b in zip(first._supports, second._supports))
    halves = triple([0] * 3, ["1/2"] * 3, values=("-1/2", "1/3"))
    assert halves._supports[0] == (6, (-3, 2))


def test_monomial_value_rejects_an_unknown_variable():
    problem = MomentProblem((pm_one("X"),), (MomentConstraint.of({"X": 1}, 0),))
    assert problem.monomial_value(MomentConstraint.of({"X": 1}, 0), (1,)) == 1
    with pytest.raises(ConstraintMismatchError, match="unknown variable 'W'"):
        problem.monomial_value(MomentConstraint.of({"W": 1}, 0), (0,))


def range_table(problem):
    """Per constraint, its (lo, hi, den) from the range table, the one range source."""
    return feasibility._range_table(feasibility._row_structure(problem))


def test_monomial_range_is_the_brute_force_range(rng):
    for _ in range(300):
        problem = random_range_problem(rng)
        for c, (lo, hi, den) in zip(problem.constraints, range_table(problem)):
            values = [problem.monomial_value(c, atom) for atom in problem.atom_space()]
            assert den > 0 and (F(lo, den), F(hi, den)) == (min(values), max(values))


def test_range_check_certificates_still_verify(rng):
    for _ in range(100):
        problem = random_range_problem(rng)
        idx = rng.randrange(len(problem.constraints))
        c, (lo, hi, den) = problem.constraints[idx], range_table(problem)[idx]
        lo, hi = F(lo, den), F(hi, den)
        outside = ((hi + F(1, 5), "=="), (lo - F(1, 7), "=="), (lo - F(1, 3), "<="), (hi + F(2, 9), ">="))
        for target, relation in outside:
            bad = MomentProblem(
                problem.variables,
                (MomentConstraint(c.exponents, target, relation),),
                allow_higher_order=True,
            )
            result = decide(bad)
            assert result.method == "range-check"
            assert result.detail["achievable"] == (lo, hi)
            assert verify_certificate(bad, result.certificate)


def range_certificate(side, lo, hi):
    """The range check's coefficients, on the refuted constraint and on normalization."""
    return (F(-1), hi) if side == "above" else (F(1), -lo)


def test_integer_range_check_matches_the_brute_force_range(rng):
    # The integer bounds are the lattice's extremes over one denominator,
    # and the cross-multiplied side agrees with the Fraction comparison.
    violations = 0
    for _ in range(150):
        problem = random_range_problem(rng)
        for c, (lo, hi, den) in zip(problem.constraints, range_table(problem)):
            values = [problem.monomial_value(c, atom) for atom in problem.atom_space()]
            least, most = min(values), max(values)
            assert den > 0 and (F(lo, den), F(hi, den)) == (least, most)
            for target in (least, most, least - F(1, 7), most + F(2, 9), (least + most) / 2, rng.choice(RANGE_POOL)):
                above = "above" if target > most else None
                below = "below" if target < least else None
                for relation in ("==", "<=", ">="):
                    bounded = MomentConstraint(c.exponents, target, relation)
                    expected = {"==": above or below, "<=": below, ">=": above}[relation]
                    assert feasibility._range_side(bounded, lo, hi, den) == expected
                    if expected:
                        violations += 1
                        result = decide(MomentProblem(problem.variables, (bounded,), allow_higher_order=True))
                        assert result.method == "range-check"
                        assert result.detail["achievable"] == (least, most)
                        assert result.certificate == range_certificate(expected, least, most)
    assert violations > 200


# X^1 Y^2 over X in {-2/3, 1/2}, Y in {-1, 3/5}: achievable [-2/3, 1/2].
# The first constraint, E(Y^2) <= 1, holds everywhere and shifts the
# tested one to index 1.
BOUND_STEP = F(1, 10**40)


@pytest.mark.parametrize(
    "relation, bound, side",
    [("==", F(-2, 3), "below"), ("==", F(1, 2), "above"), ("<=", F(-2, 3), "below"), (">=", F(1, 2), "above")],
)
def test_range_check_accepts_its_bound_and_refuses_one_step_past(relation, bound, side):
    variables = (
        FiniteRandomVariable("X", (F(-2, 3), F(1, 2))),
        FiniteRandomVariable("Y", (F(-1), F(3, 5))),
    )

    def problem(target):
        return MomentProblem(
            variables,
            (MomentConstraint.of({"Y": 2}, 1, "<="), MomentConstraint.of({"X": 1, "Y": 2}, target, relation)),
        )

    on_bound = decide(problem(bound))
    assert on_bound.feasible and on_bound.method == "simplex"
    step = BOUND_STEP if side == "above" else -BOUND_STEP
    past = problem(bound + step)
    result = decide(past)
    assert result.method == "range-check" and result.detail["achievable"] == (F(-2, 3), F(1, 2))
    assert result.certificate == (F(0), *range_certificate(side, F(-2, 3), F(1, 2)))
    assert verify_certificate(past, result.certificate)


def test_decide_computes_the_row_structure_once(monkeypatch):
    calls = []
    real = feasibility._row_structure
    monkeypatch.setattr(feasibility, "_row_structure", lambda problem: calls.append(problem) or real(problem))
    methods = []
    for problem in (triple([0] * 3, ["1/2"] * 3), triple([0] * 3, ["-1/2"] * 3), triple([0] * 3, [2, 0, 0])):
        calls.clear()
        result = decide(problem)
        assert calls == [problem]
        methods.append((result.method, result.verdict))
    assert methods == [("simplex", "feasible"), ("simplex", "infeasible"), ("range-check", "infeasible")]


@pytest.mark.parametrize("relation,target", [("==", 2), ("<=", -2), (">=", F(3, 2))])
def test_range_check_runs_before_any_row_is_built(monkeypatch, relation, target):
    # 16 +-1 variables: 65,536 atoms, far above the row cache's cell budget.
    problem = MomentProblem(
        tuple(pm_one(f"X{i}") for i in range(16)),
        (MomentConstraint.of({"X0": 1}, 0), MomentConstraint.of({"X1": 1, "X2": 1}, target, relation)),
    )
    assert (len(problem.constraints) + 1) * problem.atom_count() > feasibility._ROW_CACHE_CELLS

    def no_rows(structure):
        raise AssertionError("rows built before the range check")

    monkeypatch.setattr(feasibility, "_build_rows", no_rows)
    monkeypatch.setattr(feasibility, "_cached_rows", no_rows)
    result = decide(problem)
    assert result.method == "range-check" and result.detail["achievable"] == (-1, 1)
    assert verify_certificate(problem, result.certificate)


class TestMonotonicity:
    def test_removing_constraints_preserves_feasibility(self, rng):
        for _ in range(60):
            prob = random_problem(rng)
            if not prob.constraints:
                continue
            verdict = decide(prob).feasible
            if not verdict:
                continue
            drop = rng.randrange(len(prob.constraints))
            reduced = MomentProblem(
                prob.variables,
                tuple(c for i, c in enumerate(prob.constraints) if i != drop),
            )
            assert decide(reduced).feasible


class TestReduceThenTest:
    @staticmethod
    def spin1_problem(pair_targets):
        names = ("A", "Ap", "B", "Bp")
        vs = tuple(
            FiniteRandomVariable(n, (F(-1), F(0), F(1))) for n in names
        )
        cons = []
        for n in names:
            cons.append(MomentConstraint.of({n: 1}, 0))
            cons.append(MomentConstraint.of({n: 2}, 1))
        for (a, b), t in pair_targets.items():
            cons += [
                MomentConstraint.of({a: 1, b: 1}, t),
                MomentConstraint.of({a: 2, b: 1}, 0),
                MomentConstraint.of({a: 1, b: 2}, 0),
                MomentConstraint.of({a: 2, b: 2}, 1),
            ]
        return MomentProblem(vs, tuple(cons))

    PAIRS = (("A", "B"), ("A", "Bp"), ("Ap", "B"), ("Ap", "Bp"))
    SIGN_PLUS = {F(-1): -1, F(0): 1, F(1): 1}

    def test_spin1_chsh_violation_transfers(self):
        targets = dict(zip(self.PAIRS, (F(3, 4), F(3, 4), F(3, 4), F(-3, 4))))
        prob = self.spin1_problem(targets)
        res = reduce_then_test(prob, {n: self.SIGN_PLUS for n in prob.names})
        assert res.verdict == "original_infeasible"
        assert res.derived["E(f(A)f(B))"] == F(3, 4)
        # the one-directional implication agrees with deciding directly
        assert decide(prob).verdict == "infeasible"

    def test_identity_maps_match_decide(self):
        names = ("A", "Ap", "B", "Bp")
        vs = tuple(pm_one(n) for n in names)
        cons = [MomentConstraint.of({n: 1}, 0) for n in names]
        cons += [MomentConstraint.of({a: 1, b: 1}, "1/2") for a, b in self.PAIRS]
        prob = MomentProblem(vs, tuple(cons))
        identity = {F(-1): -1, F(1): 1}
        res = reduce_then_test(prob, {n: identity for n in names})
        assert res.verdict == "inconclusive"
        assert decide(prob).feasible
        assert res.mapped_result.feasible

    def test_feasible_mapped_problem_is_inconclusive(self):
        targets = dict(zip(self.PAIRS, (F(1, 4), F(1, 4), F(1, 4), F(-1, 4))))
        prob = self.spin1_problem(targets)
        res = reduce_then_test(prob, {n: self.SIGN_PLUS for n in prob.names})
        assert res.verdict == "inconclusive"

    def test_underdetermined_moments_signal(self):
        # only the pair moments are given: E(sign(A)) needs E(A^2)
        names = ("A", "Ap", "B", "Bp")
        vs = tuple(
            FiniteRandomVariable(n, (F(-1), F(0), F(1))) for n in names
        )
        cons = [MomentConstraint.of({a: 1, b: 1}, "1/4") for a, b in self.PAIRS]
        prob = MomentProblem(vs, tuple(cons))
        res = reduce_then_test(prob, {n: self.SIGN_PLUS for n in names})
        assert res.verdict == "underdetermined"
        assert any("E(f(A))" in m for m in res.missing)

    def test_wrong_arity_rejected(self):
        prob = MomentProblem((pm_one("X"),), ())
        with pytest.raises(ValidationError):
            reduce_then_test(prob, {"X": {F(-1): -1, F(1): 1}})


def clear_structure_caches():
    feasibility._cached_rows.clear()
    geometry._dual_description.cache_clear()


def outcome(result):
    """Everything a result reports: verdict, path, witness masses in order, certificate, counters."""
    mass = None if result.witness is None else list(result.witness.mass.items())
    return result.verdict, result.method, mass, result.certificate, result.detail


@st.composite
def shared_structure_groups(draw):
    """At least three problems over one structure, with different targets.

    Each problem's targets are the moments of a random distribution on
    the lattice (feasible) or random rationals (mostly infeasible).
    """
    base = draw(moment_problems())
    atoms = list(base.atom_space())
    problems = []
    for _ in range(draw(st.integers(3, 5))):
        if draw(st.booleans()):
            weights = draw(st.lists(st.integers(0, 4), min_size=len(atoms), max_size=len(atoms)))
            total = sum(weights) or 1
            targets = [
                sum((F(w, total) * base.monomial_value(c, a) for w, a in zip(weights, atoms)), F(0))
                for c in base.constraints
            ]
        else:
            targets = draw(st.lists(rationals, min_size=len(base.constraints), max_size=len(base.constraints)))
        constraints = tuple(
            MomentConstraint(c.exponents, t, c.relation) for c, t in zip(base.constraints, targets)
        )
        problems.append(MomentProblem(base.variables, constraints, allow_higher_order=True))
    return problems


@settings(max_examples=60, deadline=None)
@given(shared_structure_groups())
def test_structure_caches_do_not_change_results(problems):
    # Rows and dual descriptions are cached per structure; a warm cache
    # must give what a cold one gives, field for field.
    for solver in (decide, brute_force_oracle):
        cold = []
        for problem in problems:
            clear_structure_caches()
            cold.append(outcome(solver(problem)))
        assert [outcome(solver(problem)) for problem in problems] == cold


def test_cached_rows_are_read_only_and_lists_are_fresh():
    feasible, infeasible = triple([0] * 3, ["1/2", "-1/2", "-1/2"]), triple([0] * 3, ["-1/2"] * 3)
    matrix, den, rhs = _constraint_rows(feasible)
    assert _constraint_rows(infeasible)[0] is matrix  # one structure, one matrix
    with pytest.raises(ValueError, match="read-only"):
        matrix[3, 1] += 1
    rhs[0] = F(7)
    again, den_again, rhs_again = _constraint_rows(feasible)
    assert again is matrix
    assert den == den_again == 1
    assert rhs_again == [F(0)] * 3 + [F(1, 2), F(-1, 2), F(-1, 2), F(1)]


def test_rows_over_the_cell_budget_are_not_kept(monkeypatch):
    problem = triple([0] * 3, ["-1/2"] * 3)  # 7 rows over 8 atoms: 56 cells
    monkeypatch.setattr(feasibility, "_ROW_CACHE_CELLS", 55)
    feasibility._cached_rows.clear()
    first, second = _constraint_rows(problem)[0], _constraint_rows(problem)[0]
    assert first is not second and (first == second).all()
    assert not first.flags.writeable
    assert len(feasibility._cached_rows.kept) == 0 and feasibility._cached_rows.cells == 0
    assert decide(problem).verdict == "infeasible"
    monkeypatch.setattr(feasibility, "_ROW_CACHE_CELLS", 56)
    assert _constraint_rows(problem)[0] is _constraint_rows(problem)[0]
    assert len(feasibility._cached_rows.kept) == 1 and feasibility._cached_rows.cells == 56


def ladder_structures(count):
    """Problems with ``count`` distinct row structures, each a few thousand cells at most."""
    problems = []
    for n in range(2, 6):
        for supports in itertools.product(((-1, 1), (-1, 0, 1)), repeat=2):
            variables = tuple(
                FiniteRandomVariable(f"X{i}", tuple(F(x) for x in supports[i % 2])) for i in range(n)
            )
            means = [MomentConstraint.of({f"X{i}": 1}, 0) for i in range(n)]
            pairs = [MomentConstraint.of({f"X{i}": 1, f"X{j}": 1}, 0) for i, j in itertools.combinations(range(n), 2)]
            for depth in range(len(pairs) + 1):
                problems.append(MomentProblem(variables, tuple(means + pairs[:depth])))
    assert len(problems) >= count
    return problems[:count]


def test_a_second_pass_over_71_structures_hits_every_time(monkeypatch):
    # An entry-bounded cache of 64 misses on all 71 in a cyclic pass.
    problems = ladder_structures(71)
    assert len({feasibility._row_structure(p) for p in problems}) == 71
    built = []
    real = feasibility._build_rows

    def counting(structure):
        built.append(structure)
        return real(structure)

    monkeypatch.setattr(feasibility, "_build_rows", counting)
    feasibility._cached_rows.clear()
    first = [_constraint_rows(p)[0] for p in problems]
    assert len(built) == 71
    second = [_constraint_rows(p)[0] for p in problems]
    assert len(built) == 71
    assert all(a is b for a, b in zip(first, second))
    assert feasibility._cached_rows.cells == sum(m.size for m in first)


def test_row_cache_drops_the_least_recently_used_past_its_cell_total(monkeypatch):
    # Fake structures ("s", i, cells) whose rows are `cells` zeros.
    monkeypatch.setattr(feasibility, "_build_rows", lambda structure: (np.zeros(structure[2], np.int64), 1))
    monkeypatch.setattr(feasibility, "_ROW_CACHE_CELLS", 10)
    cache = feasibility._cached_rows
    cache.clear()
    for i in range(64):
        cache(("s", i, 10))
    assert len(cache.kept) == 64 and cache.cells == 640  # exactly 64 budgets: nothing dropped
    first = cache(("s", 0, 10))[0]  # now the most recently used
    cache(("s", 64, 4))
    assert ("s", 1, 10) not in cache.kept and cache.cells == 634
    cache(("s", 65, 10))
    assert ("s", 2, 10) not in cache.kept and cache.cells == 634
    assert cache(("s", 0, 10))[0] is first
    cache(("s", 66, 11))  # over the single-matrix budget: used, not kept
    assert ("s", 66, 11) not in cache.kept and cache.cells == 634
    assert list(cache.kept)[-1] == ("s", 0, 10)
    assert cache.cells == sum(rows[0].size for rows in cache.kept.values())
    cache.clear()


def test_a_gated_witness_equals_the_validated_distribution(rng):
    # decide wraps the gated masses without JointDistribution's checks;
    # the object is the one the validating constructor builds.
    checked = 0
    for _ in range(80):
        problem = random_problem(rng)
        for solve in (decide, brute_force_oracle):
            result = solve(problem)
            if not result.feasible:
                continue
            validated = JointDistribution(problem.variables, dict(result.witness.mass))
            assert result.witness == validated
            assert list(result.witness.mass.items()) == list(validated.mass.items())
            assert all(type(p) is Fraction for p in result.witness.mass.values())
            assert result.witness.variables is problem.variables
            checked += 1
    assert checked > 20


def test_trusted_distribution_sorts_and_drops_zero_masses_as_the_constructor_does():
    variables = (pm_one("X"), pm_one("Y"))
    mass = {(1, 1): F(1, 2), (0, 1): F(0), (0, 0): F(1, 2)}
    trusted = JointDistribution._trusted(variables, mass)
    validated = JointDistribution(variables, mass)
    assert trusted == validated and list(trusted.mass.items()) == list(validated.mass.items())
    assert repr(trusted) == repr(validated)


def test_decide_validates_a_witness_only_at_its_gate(monkeypatch):
    constructed = []
    real = JointDistribution.__post_init__
    monkeypatch.setattr(JointDistribution, "__post_init__", lambda self: constructed.append(1) or real(self))
    result = decide(triple([0] * 3, ["1/2", "-1/2", "-1/2"]))
    assert result.feasible and constructed == []


@pytest.mark.parametrize(
    "masses,message",
    [
        ({0: F(1, 2), 1: F(-1, 2), 2: F(1)}, "negative mass"),
        ({0: F(1, 2), 1: F(1, 4)}, "witness masses sum to 3/4"),
        ({0: F(1)}, "witness violates"),
    ],
    ids=["negative", "short", "moment"],
)
def test_a_corrupt_solvers_witness_is_refused_by_the_gate(monkeypatch, masses, message):
    # With no second validation, the gate alone stands between a faulty
    # solver and a returned witness.
    monkeypatch.setattr(
        feasibility, "solve_equality_feasibility", lambda *a: EqualityFeasibility(True, masses, None, 0)
    )
    with pytest.raises(AssertionError, match=message):
        decide(triple([0] * 3, ["1/2", "-1/2", "-1/2"]))
