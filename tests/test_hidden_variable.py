import itertools
import random
import sys
from fractions import Fraction

import pytest

from jointfeas import (
    FactorizationReport,
    FiniteRandomVariable,
    HiddenVariableModel,
    JointDistribution,
    LambdaPoint,
    construct_deterministic,
    distribution_from_values,
    exchangeable_symmetric_construct,
    exchangeable_symmetric_criterion,
    expectation,
    pm_one,
    point_mass,
    uniform_distribution,
    verify_factorization,
    verify_noncontextuality,
)
from jointfeas.errors import ValidationError

from conftest import random_distribution, random_variables

F = Fraction


@pytest.fixture
def six_atom():
    vs = tuple(
        FiniteRandomVariable(n, (F(-1), F(0), F(1))) for n in "XYZ"
    )
    sixth = F(1, 6)
    return distribution_from_values(
        vs,
        {
            (-1, 0, 1): sixth,
            (1, -1, 0): sixth,
            (0, 1, -1): sixth,
            (1, 0, -1): sixth,
            (-1, 1, 0): sixth,
            (0, -1, 1): sixth,
        },
    )


class TestDeterministicConstruction:
    def test_six_points_all_deterministic(self, six_atom):
        model = construct_deterministic(six_atom)
        assert len(model.points) == 6
        assert model.deterministic
        assert all(pt.probability == F(1, 6) for pt in model.points)
        assert model.mixture().mass == six_atom.mass

    def test_point_mass_single_lambda(self):
        d = point_mass((pm_one("X"), pm_one("Y")), (0, 1))
        model = construct_deterministic(d)
        assert len(model.points) == 1
        assert model.points[0].probability == 1

    def test_uniform_pair_roundtrip(self):
        d = uniform_distribution((pm_one("X"), pm_one("Y")))
        model = construct_deterministic(d)
        assert len(model.points) == 4
        assert model.mixture().mass == d.mass

    def test_zero_conditional_variance(self, six_atom):
        model = construct_deterministic(six_atom)
        for pt in model.points:
            for n in ("X", "Y", "Z"):
                mean = expectation(pt.conditional, {n: 1})
                second = expectation(pt.conditional, {n: 2})
                assert second - mean * mean == 0

    def test_randomized_roundtrip(self, rng):
        for _ in range(100):
            d = random_distribution(rng)
            model = construct_deterministic(d)
            assert model.mixture().mass == d.mass
            assert verify_factorization(model, "full").ok


class TestFactorizationVerifier:
    def test_orders_on_deterministic_model(self, six_atom):
        model = construct_deterministic(six_atom)
        for order in (1, 2, "full"):
            report = verify_factorization(model, order)
            assert report.ok and report.worst_discrepancy == 0

    def test_correlated_conditional_detected(self):
        vs = (pm_one("X"), pm_one("Y"))
        correlated = JointDistribution(
            vs,
            {
                (1, 1): F(5, 16),
                (0, 0): F(5, 16),
                (1, 0): F(3, 16),
                (0, 1): F(3, 16),
            },
        )
        model = HiddenVariableModel(vs, (LambdaPoint("only", F(1), correlated),))
        report = verify_factorization(model, 1)
        assert not report.ok
        # conditional covariance E(XY) - E(X)E(Y) = 1/4 at the single point
        assert report.worst_discrepancy == F(1, 4)
        assert not verify_factorization(model, "full").ok

    def test_single_point_independent_is_fine(self):
        vs = (pm_one("X"), pm_one("Y"))
        model = HiddenVariableModel(
            vs, (LambdaPoint("only", F(1), uniform_distribution(vs)),)
        )
        for order in (1, 2, "full"):
            assert verify_factorization(model, order).ok

    def test_bad_order_rejected(self, six_atom):
        with pytest.raises(ValidationError):
            verify_factorization(construct_deterministic(six_atom), 3)

    @pytest.mark.parametrize("order", [True, False, 2.0, 1.0, "1", None])
    def test_order_must_be_an_int_or_full(self, six_atom, order):
        # True == 1 and 2.0 == 2, so a plain membership test let them through
        with pytest.raises(ValidationError):
            verify_factorization(construct_deterministic(six_atom), order)

    def test_report_spells_the_order(self, six_atom):
        model = construct_deterministic(six_atom)
        assert [verify_factorization(model, o).order for o in (1, 2, "full")] == ["1", "2", "full"]

    def test_reads_no_marginal_distribution_or_expectation(self, monkeypatch):
        vs = (pm_one("X"), pm_one("Y"), FiniteRandomVariable("Z", (F(-1), F(1, 2), F(2))))
        rng = random.Random(5)
        model = HiddenVariableModel(
            vs, tuple(LambdaPoint(f"p{k}", F(1, 3), random_conditional(rng, vs, "sparse")) for k in range(3))
        )
        expected = [reference_report(model, order) for order in (1, 2, "full")]
        assert not expected[0].ok and not expected[2].ok

        def refuse(*args, **kwargs):
            raise AssertionError("the verifier left its integer path")

        monkeypatch.setattr(JointDistribution, "marginal", refuse)
        monkeypatch.setattr(JointDistribution, "__post_init__", refuse)
        for name, module in list(sys.modules.items()):
            if name.startswith("jointfeas") and getattr(module, "expectation", None) is expectation:
                monkeypatch.setattr(module, "expectation", refuse)
        assert [verify_factorization(model, order) for order in (1, 2, "full")] == expected


def full_lattice_factorization(model):
    """``verify_factorization(model, "full")`` scanning every atom of the lattice."""
    worst, where = F(0), ""
    names = [v.name for v in model.variables]
    for pt in model.points:
        cond = pt.conditional
        marginals = [cond.marginal([n]) for n in names]
        for atom in cond.atom_space():
            product = F(1)
            for i, marg in enumerate(marginals):
                product *= marg.mass.get((atom[i],), F(0))
            gap = abs(cond.mass.get(atom, F(0)) - product)
            if gap > worst:
                worst, where = gap, f"lambda {pt.label}, atom {atom}"
    return worst == 0, worst, where


def fraction_moment_factorization(model, order):
    """``verify_factorization(model, order)`` for order 1 or 2, one ``expectation`` per moment."""
    worst, where = F(0), ""
    names = [v.name for v in model.variables]
    for pt in model.points:
        cond = pt.conditional
        for power in (1, 2)[:order]:
            joint = expectation(cond, {n: power for n in names})
            product = F(1)
            for n in names:
                product *= expectation(cond, {n: power})
            gap = abs(joint - product)
            if gap > worst:
                worst, where = gap, f"lambda {pt.label}, moment order {power}"
    return worst == 0, worst, where


def reference_report(model, order):
    if order == "full":
        ok, worst, where = full_lattice_factorization(model)
    else:
        ok, worst, where = fraction_moment_factorization(model, order)
    return FactorizationReport(ok, str(order), worst, where)


def random_conditional(rng, variables, kind=None):
    """A point mass, a product law or a non-product law on a sub-lattice.

    The sub-lattice keeps a random subset of each support, often without
    its interior values, so those carry zero marginal mass.
    """
    sizes = [len(v.support) for v in variables]
    kind = kind or rng.choice(["point", "product", "sparse"])
    if kind == "point":
        return point_mass(variables, tuple(rng.randrange(s) for s in sizes))
    kept = [sorted(rng.sample(range(s), rng.randint(1, s))) for s in sizes]
    if kind == "product":
        laws = []
        for indices in kept:
            weights = [rng.randint(1, 3) for _ in indices]
            laws.append({i: F(w, sum(weights)) for i, w in zip(indices, weights)})
        mass = {}
        for atom in itertools.product(*kept):
            p = F(1)
            for i, law in zip(atom, laws):
                p *= law[i]
            mass[atom] = p
        return JointDistribution(variables, mass)
    atoms = list(itertools.product(*kept))
    weights = [rng.choice([0, 0, 1, 1, 2]) for _ in atoms]
    if not any(weights):
        weights[rng.randrange(len(atoms))] = 1
    return JointDistribution(
        variables, {a: F(w, sum(weights)) for a, w in zip(atoms, weights) if w}
    )


def random_model(rng):
    variables = random_variables(rng, max_vars=4, max_values=4)
    if rng.random() < 0.3:
        return construct_deterministic(random_distribution(rng, variables))
    weights = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    return HiddenVariableModel(
        variables,
        tuple(
            LambdaPoint(f"p{k}", F(w, sum(weights)), random_conditional(rng, variables))
            for k, w in enumerate(weights)
        ),
    )


def assert_matches_reference(model):
    for order in (1, 2, "full"):
        assert verify_factorization(model, order) == reference_report(model, order)


class TestFullOrderMatchesTheLatticeScan:
    """The integer verifier against the Fraction references, every report field."""

    def test_random_models(self, rng):
        failing = {1: 0, 2: 0, "full": 0}
        sizes = set()
        for _ in range(400):
            model = random_model(rng)
            assert_matches_reference(model)
            sizes.add(len(model.variables))
            for order in failing:
                failing[order] += not verify_factorization(model, order).ok
        assert sizes == {1, 2, 3, 4}
        assert all(0 < count < 400 for count in failing.values())  # both outcomes are exercised

    def test_supports_with_denominators(self, rng):
        vs = tuple(FiniteRandomVariable(n, (F(-1), F(1, 2), F(2))) for n in "XYZ")
        for _ in range(40):
            weights = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
            model = HiddenVariableModel(
                vs,
                tuple(
                    LambdaPoint(f"p{k}", F(w, sum(weights)), random_conditional(rng, vs, "sparse"))
                    for k, w in enumerate(weights)
                ),
            )
            assert_matches_reference(model)

    def test_conditional_over_other_supports(self):
        # the mixture reads support indices, so a conditional with the model's
        # names but its own supports would change the moments it induces
        vs = (pm_one("X"), pm_one("Y"))
        other = (FiniteRandomVariable("X", (F(-1), F(1, 3))), FiniteRandomVariable("Y", (F(0), F(5))))
        law = {(0, 0): F(1, 2), (1, 1): F(1, 3), (0, 1): F(1, 6)}
        points = (
            LambdaPoint("own", F(1, 2), JointDistribution(vs, law)),
            LambdaPoint("other", F(1, 2), JointDistribution(other, law)),
        )
        with pytest.raises(ValidationError, match="lambda point other: conditional is not over"):
            HiddenVariableModel(vs, points)

    def test_zero_mass_interior_values(self):
        # X, Y in {-1, 0, 1} with no mass on 0: a correlated law on the corners
        vs = tuple(FiniteRandomVariable(n, (F(-1), F(0), F(1))) for n in "XY")
        corners = JointDistribution(vs, {(0, 0): F(1, 2), (2, 0): F(1, 8), (2, 2): F(3, 8)})
        model = HiddenVariableModel(vs, (LambdaPoint("c", F(1), corners),))
        assert not verify_factorization(model, "full").ok
        assert_matches_reference(model)

    def test_tied_gaps_keep_the_first_location(self):
        # every atom of the perfectly correlated pair is off by 1/4
        vs = (pm_one("X"), pm_one("Y"))
        diagonal = JointDistribution(vs, {(0, 0): F(1, 2), (1, 1): F(1, 2)})
        model = HiddenVariableModel(
            vs, (LambdaPoint("a", F(1, 2), diagonal), LambdaPoint("b", F(1, 2), diagonal))
        )
        report = verify_factorization(model, "full")
        assert report.worst_discrepancy == F(1, 4)
        assert report.worst_location == "lambda a, atom (0, 0)"
        # E(XY) - E(X)E(Y) = 1 at both points; the squares factor
        for order in (1, 2):
            report = verify_factorization(model, order)
            assert report.worst_discrepancy == 1
            assert report.worst_location == "lambda a, moment order 1"
        assert_matches_reference(model)

    def test_exchangeable_construction(self):
        for cells in [
            ("3/8", "1/8", "1/8", "3/8"),
            ("1/2", "1/8", "1/8", "1/4"),
            ("1/2", "0", "0", "1/2"),
            ("2/5", "1/10", "1/10", "2/5"),
            ("1/3", "1/9", "1/9", "4/9"),
        ]:
            built = exchangeable_symmetric_construct(*cells)
            assert len(built.model.points) == 2
            assert_matches_reference(built.model)

    def test_never_enumerates_the_lattice(self, monkeypatch):
        # 20 +-1 variables: a 2**20 lattice holding four atoms
        vs = tuple(pm_one(f"X{i}") for i in range(20))
        atoms = [tuple((k >> (i % 2)) & 1 for i in range(20)) for k in range(4)]

        def refuse(self):
            raise AssertionError("atom_space enumerated")

        monkeypatch.setattr(JointDistribution, "atom_space", refuse)
        model = construct_deterministic(JointDistribution(vs, {a: F(1, 4) for a in atoms}))
        assert len(model.points) == 4
        assert verify_factorization(model, "full").ok


class TestNoncontextuality:
    def test_single_global_table_passes(self, six_atom):
        model = construct_deterministic(six_atom)
        assert verify_noncontextuality(model, [["X", "Y"], ["Z"]])
        assert verify_noncontextuality(model, [])  # vacuous partition

    def test_context_indexed_tables_must_agree(self):
        d = uniform_distribution((pm_one("X"), pm_one("Y")))
        base = construct_deterministic(d)
        probs = [pt.probability for pt in base.points]
        perturbed = list(probs)
        perturbed[0] += F(1, 100)
        perturbed[1] -= F(1, 100)
        model = HiddenVariableModel(
            base.variables,
            base.points,
            context_tables={"xy": tuple(probs), "yx": tuple(perturbed)},
        )
        assert not verify_noncontextuality(model, [["X"], ["Y"]])
        agreeing = HiddenVariableModel(
            base.variables,
            base.points,
            context_tables={"xy": tuple(probs), "yx": tuple(probs)},
        )
        assert verify_noncontextuality(agreeing, [["X"], ["Y"]])

    def test_overlapping_contexts_rejected(self, six_atom):
        model = construct_deterministic(six_atom)
        with pytest.raises(ValidationError):
            verify_noncontextuality(model, [["X"], ["X", "Y"]])


class TestExchangeableCriterion:
    def test_positive_correlation_exists(self):
        result = exchangeable_symmetric_criterion("3/8", "1/8", "1/8", "3/8")
        assert result.exists and result.correlation == F(1, 2)

    def test_negative_correlation_does_not(self):
        result = exchangeable_symmetric_criterion("1/8", "3/8", "3/8", "1/8")
        assert result.exists is False and result.correlation == F(-1, 2)

    def test_zero_correlation_boundary(self):
        result = exchangeable_symmetric_criterion("1/4", "1/4", "1/4", "1/4")
        assert result.exists and result.correlation == 0

    def test_exchangeability_enforced(self):
        with pytest.raises(ValidationError):
            exchangeable_symmetric_criterion("1/2", "1/4", "0", "1/4")

    def test_zero_variance_undefined(self):
        result = exchangeable_symmetric_criterion("1", "0", "0", "0")
        assert result.exists is None and result.correlation is None


class TestExchangeableConstruction:
    def test_independence_single_point(self):
        built = exchangeable_symmetric_construct("1/4", "1/4", "1/4", "1/4")
        assert built.model is not None
        assert len(built.model.points) == 1
        assert built.model.points[0].label == "t=0"

    def test_perfect_correlation_two_points(self):
        built = exchangeable_symmetric_construct("1/2", "0", "0", "1/2")
        assert built.model is not None
        labels = sorted(pt.label for pt in built.model.points)
        assert labels == ["t=-1", "t=1"]
        assert all(pt.probability == F(1, 2) for pt in built.model.points)

    def test_recomposition_of_three_eighths_case(self):
        built = exchangeable_symmetric_construct("3/8", "1/8", "1/8", "3/8")
        model = built.model
        assert model is not None and len(model.points) == 2
        mix = model.mixture()
        assert mix.prob(frozenset({(1, 0)})) == F(1, 8)
        assert verify_factorization(model, "full").ok

    def test_failure_below_boundary(self):
        built = exchangeable_symmetric_construct("1/8", "3/8", "3/8", "1/8")
        assert built.model is None
        assert "correlation -1/2 < 0" in built.note

    def test_grid_success_iff_nonnegative(self):
        rho = F(-1)
        while rho <= 1:
            p11 = p00 = (1 + rho) / 4
            p10 = p01 = (1 - rho) / 4
            built = exchangeable_symmetric_construct(p11, p10, p01, p00)
            assert (built.model is not None) == (rho >= 0)
            if built.model is not None:
                assert len(built.model.points) <= 2
            rho += F(1, 8)

    def test_asymmetric_mean_case(self):
        # p11=1/2, p10=p01=1/8, p00=1/4: mean 1/4, E(XY)=1/2, cov 7/16 > 0
        built = exchangeable_symmetric_construct("1/2", "1/8", "1/8", "1/4")
        assert built.model is not None
        mix = built.model.mixture()
        assert mix.prob(frozenset({(1, 1)})) == F(1, 2)
        assert mix.prob(frozenset({(0, 0)})) == F(1, 4)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    def test_tilt_labels_past_the_int_digit_limit(self):
        # 2,500-digit cell denominators give a tilt past Python's 4,300-digit limit
        q, r = 10**2500 + 7, 10**2500 + 3 * 10**700 + 1
        p10 = F(1, 4 * q)
        p11 = F(1, 2) + F(1, r)
        limit = sys.get_int_max_str_digits()
        built = exchangeable_symmetric_construct(p11, p10, p10, 1 - p11 - 2 * p10)
        assert sys.get_int_max_str_digits() == limit
        assert built.model is not None
        assert len(built.model.points[0].label) > limit
        assert built.model.mixture().prob(frozenset({(1, 0)})) == p10
