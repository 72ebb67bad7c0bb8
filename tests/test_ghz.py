from fractions import Fraction

import pytest

from jointfeas import (
    GHZ_VARIABLE_ORDER,
    GHZConfig,
    build_ghz_problem,
    decide,
    drop_constraints,
    minimal_infeasible_subsets,
    pm_one,
    prove_ghz_infeasible,
    replay_certainty_chain,
    subset_feasibility_map,
    uniform_distribution,
    verify_certificate,
)
from jointfeas.errors import ValidationError
from jointfeas.ghz import DEFAULT_QUADRUPLES, phase_target

F = Fraction


class TestConfig:
    def test_default_targets(self):
        assert [phase_target(q) for q in DEFAULT_QUADRUPLES] == [
            F(-1),
            F(1),
            F(-1),
            F(-1),
            F(1),
            F(-1),
        ]

    def test_unavailable_phase_rejected(self):
        with pytest.raises(ValidationError):
            GHZConfig(((0, 1, 0, 0),))  # the B family only has phase 0
        with pytest.raises(ValidationError):
            GHZConfig(((3, 0, 0, 0),))

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            GHZConfig(((0, 0, 0, 0), (0, 0, 0, 0)))


class TestProblem:
    def test_default_shape(self):
        problem = build_ghz_problem()
        assert len(problem.variables) == 8
        assert problem.atom_count() == 256
        assert len(problem.constraints) == 6
        assert problem.names == GHZ_VARIABLE_ORDER
        assert problem.variables == tuple(pm_one(n) for n in GHZ_VARIABLE_ORDER)
        # Built once: every problem shares the same eight variables.
        assert build_ghz_problem(GHZConfig(((0, 0, 0, 0),))).variables is problem.variables

    def test_single_constraint_feasible(self):
        result = prove_ghz_infeasible(GHZConfig(((0, 0, 0, 0),)))
        assert result.feasible

    def test_default_infeasible_with_verified_certificate(self):
        result = prove_ghz_infeasible()
        assert result.verdict == "infeasible"
        assert verify_certificate(build_ghz_problem(), result.certificate)

    def test_flipping_one_target_changes_the_system(self):
        # turning the (180,0,0,0) quadruple into (0,0,0,0)-like target is
        # not expressible by config; instead drop it and decide the rest
        reduced = drop_constraints(GHZConfig(), indices=[1])
        assert len(reduced.quadruples) == 5
        assert prove_ghz_infeasible(reduced).verdict == "infeasible"

    def test_flipped_target_decided_exactly(self):
        # hand-build the default system with the (180,0,0,0) target
        # flipped from +1 to -1: the quadruples not involving A_180
        # still contain a contradictory four-element subset
        base = build_ghz_problem()
        from jointfeas import MomentConstraint, MomentProblem

        flipped = []
        for c in base.constraints:
            names = [n for n, _ in c.exponents]
            if set(names) == {"A_180", "B_0", "C_0", "D_0"}:
                flipped.append(MomentConstraint(c.exponents, F(-1)))
            else:
                flipped.append(c)
        problem = MomentProblem(base.variables, tuple(flipped))
        result = decide(problem)
        assert result.verdict == "infeasible"
        assert verify_certificate(problem, result.certificate)

    def test_oracle_agrees_on_ghz_default(self):
        from jointfeas import brute_force_oracle

        problem = build_ghz_problem()
        assert brute_force_oracle(problem).verdict == decide(problem).verdict
        relaxed = build_ghz_problem(
            drop_constraints(GHZConfig(), variables=["A_180", "A_90"])
        )
        assert brute_force_oracle(relaxed).verdict == decide(relaxed).verdict


@pytest.fixture(scope="module")
def fmap():
    return subset_feasibility_map()


class TestSubsets:

    def test_leave_one_out(self, fmap):
        full = frozenset(range(6))
        expected = ["infeasible", "infeasible", "feasible", "feasible", "infeasible", "infeasible"]
        got = [fmap[full - {i}] for i in range(6)]
        assert got == expected

    def test_minimal_infeasible_subsets(self, fmap):
        assert minimal_infeasible_subsets(fmap) == [(0, 2, 3, 4), (1, 2, 3, 5)]

    def test_every_single_constraint_feasible(self, fmap):
        for i in range(6):
            assert fmap[frozenset({i})] == "feasible"

    def test_dropping_A180_only_is_still_infeasible(self, fmap):
        # both four-element contradictions survive removing the 180-phase
        # constraints only when the 90-phase pair stays; removing just
        # A_180 leaves {0, 2, 3, 4} intact, which is contradictory
        cfg = drop_constraints(GHZConfig(), variables=["A_180"])
        assert prove_ghz_infeasible(cfg).verdict == "infeasible"
        assert fmap[frozenset({0, 2, 3, 4})] == "infeasible"

    def test_dropping_all_nonzero_phase_A_is_feasible(self, fmap):
        cfg = drop_constraints(GHZConfig(), variables=["A_180", "A_90"])
        assert [q for q in cfg.quadruples] == [(0, 0, 0, 0), (0, 0, 1, 1)]
        result = prove_ghz_infeasible(cfg)
        assert result.feasible
        assert result.witness is not None


def witness_for(indices):
    cfg = GHZConfig(tuple(DEFAULT_QUADRUPLES[i] for i in indices))
    result = decide(build_ghz_problem(cfg))
    assert result.feasible
    # decide returns a distribution over the fixed eight-variable order
    return result.witness


class TestReplay:
    def test_chain_holds_on_partial_witness(self):
        # constraints 0, 2, 3, 5 are exactly those the chain's later steps
        # use; step 8 needs constraint 1 and reports its absence
        dist = witness_for([0, 2, 3, 5])
        report = replay_certainty_chain(dist)
        status = {s.step: s.status for s in report.steps}
        assert status[8] == "hypothesis_fails"
        for step in (6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18):
            assert status[step] == "holds", step
        assert report.first_break == 8
        assert report.note == ""

    def test_opposite_partial_witness(self):
        # with constraints 1, 2, 3 only, the steps relying on the
        # all-zero-phase quadruple are inapplicable while step 8 holds
        dist = witness_for([1, 2, 3])
        report = replay_certainty_chain(dist)
        status = {s.step: s.status for s in report.steps}
        assert status[8] == "holds"
        assert status[9] == "hypothesis_fails"
        assert status[17] == "hypothesis_fails"

    def test_uniform_distribution_fails_hypotheses_immediately(self):
        dist = uniform_distribution(tuple(pm_one(n) for n in GHZ_VARIABLE_ORDER))
        report = replay_certainty_chain(dist)
        assert report.first_break == 7
        status = {s.step: s.status for s in report.steps}
        assert status[7] == "hypothesis_fails"
        assert status[8] == "hypothesis_fails"

    def test_product_signs_recorded(self):
        dist = witness_for([0, 2, 3, 5])
        report = replay_certainty_chain(dist)
        s1, s2, s3, s4 = report.signs
        assert s1 * s2 * s3 * s4 == -1  # constraint 0 forces the product

    def test_wrong_variables_rejected(self):
        d = uniform_distribution((pm_one("X"),))
        with pytest.raises(ValidationError):
            replay_certainty_chain(d)

    def test_chain_breaks_when_sixth_constraint_added(self):
        # a distribution obeying 0,2,3,5 replays cleanly except step 8;
        # one obeying all six cannot exist, matching the 8-vs-18 clash
        dist = witness_for([0, 2, 3, 5])
        report = replay_certainty_chain(dist)
        assert {s.step: s.status for s in report.steps}[18] == "holds"
        full = decide(build_ghz_problem())
        assert full.verdict == "infeasible"
