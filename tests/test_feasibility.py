import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from jointfeas import (
    FiniteRandomVariable,
    MomentConstraint,
    MomentProblem,
    brute_force_oracle,
    decide,
    expectation,
    pm_one,
    reduce_then_test,
    verify_certificate,
)
from jointfeas.errors import SizeCapError, ValidationError

from conftest import random_problem

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
            from jointfeas import MomentConstraint, MomentProblem, feasibility, pm_one

            real = feasibility.verify_certificate
            checked = []

            def spy(problem, cert):
                checked.append(real(problem, cert))
                return checked[-1]

            feasibility.verify_certificate = spy
            prob = MomentProblem((pm_one("X"),), (MomentConstraint.of({"X": 1}, 2),))
            result = feasibility.decide(prob)
            feasibility.verify_certificate = lambda problem, cert: False
            try:
                feasibility.decide(prob)
                gate = "skipped"
            except AssertionError:
                gate = "raised"
            print(sys.flags.optimize, result.method, checked, gate)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "range-check", "[True]", "raised"]

    def test_simplex_certification_survives_python_O(self):
        # The float guide's basis is only accepted through explicit exact
        # checks; with asserts stripped a basis that proves nothing must
        # still be rejected, and the certificate gate must still raise.
        script = textwrap.dedent(
            """
            import sys
            from jointfeas import MomentConstraint, MomentProblem, feasibility, pm_one, simplex

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
            guided = [feasibility.decide(p) for p in problems]

            real_loop = simplex._exact_bland
            fallbacks = []

            def loop(*args):
                fallbacks.append(args)
                return real_loop(*args)

            simplex._exact_bland = loop
            # the all-artificial start basis certifies neither problem
            simplex._float_guide = lambda tab, n, m: (list(range(n, n + m)), 0)
            forced = [feasibility.decide(p) for p in problems]
            rejected = len(fallbacks)
            same = [outcome(a) == outcome(b) for a, b in zip(guided, forced)]

            feasibility.verify_certificate = lambda problem, cert: False
            try:
                feasibility.decide(problems[0])
                gate = "skipped"
            except AssertionError:
                gate = "raised"
            print(sys.flags.optimize, *(r.method for r in guided), *(r.verdict for r in guided),
                  rejected, *same, gate)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "1", "simplex", "simplex", "infeasible", "feasible", "2", "True", "True", "raised"
        ]

    def test_atom_cap(self):
        vs = tuple(pm_one(f"X{i}") for i in range(12))
        prob = MomentProblem(vs, (MomentConstraint.of({"X0": 1}, 0),))
        with pytest.raises(SizeCapError):
            decide(prob, atom_cap=1024)

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
