import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jointfeas import (
    FiniteRandomVariable,
    JointDistribution,
    check_certainty_lemma,
    correlation,
    covariance,
    distribution_from_values,
    event_value,
    event_where,
    expectation,
    pm_one,
    point_mass,
    pushforward,
    uniform_distribution,
    variance,
)
from jointfeas.errors import ConstraintMismatchError, ValidationError

from conftest import random_distribution


def three_valued(name):
    return FiniteRandomVariable(name, (Fraction(-1), Fraction(0), Fraction(1)))


@pytest.fixture
def six_atom():
    vs = (three_valued("X"), three_valued("Y"), three_valued("Z"))
    sixth = Fraction(1, 6)
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


class TestValidation:
    def test_support_must_increase(self):
        with pytest.raises(ValidationError):
            FiniteRandomVariable("X", (Fraction(1), Fraction(1)))

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            JointDistribution((pm_one("X"),), {(0,): Fraction(1, 2)})

    @pytest.mark.parametrize(
        "mass,total",
        [
            ({(0,): Fraction(1, 3), (1,): Fraction(1, 2)}, "5/6"),
            ({(0,): Fraction(2, 3), (1,): Fraction(5, 6)}, "3/2"),
            ({(0,): Fraction(1, 2), (1,): Fraction(0)}, "1/2"),
            ({(0,): Fraction(0)}, "0"),
            ({}, "0"),
        ],
    )
    def test_a_bad_total_names_the_exact_sum(self, mass, total):
        with pytest.raises(ValidationError, match=f"^probabilities sum to {total}, expected exactly 1$"):
            JointDistribution((pm_one("X"),), mass)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValidationError):
            JointDistribution(
                (pm_one("X"),), {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)}
            )

    def test_zero_atoms_dropped(self):
        d = JointDistribution(
            (pm_one("X"),), {(0,): Fraction(1), (1,): Fraction(0)}
        )
        assert (1,) not in d.mass


class TestMoments:
    def test_six_atom_product_moment(self, six_atom):
        assert expectation(six_atom, {"X": 1, "Y": 1}) == Fraction(-1, 3)
        assert covariance(six_atom, "X", "Y") == Fraction(-1, 3)
        assert variance(six_atom, "X") == Fraction(2, 3)

    def test_rescaled_covariance(self):
        vs = tuple(
            FiniteRandomVariable(n, (Fraction(-2), Fraction(0), Fraction(2)))
            for n in "XYZ"
        )
        sixth = Fraction(1, 6)
        d = distribution_from_values(
            vs,
            {
                (-2, 0, 2): sixth,
                (2, -2, 0): sixth,
                (0, 2, -2): sixth,
                (2, 0, -2): sixth,
                (-2, 2, 0): sixth,
                (0, -2, 2): sixth,
            },
        )
        assert expectation(d, {"X": 1, "Y": 1}) == Fraction(-4, 3)
        assert correlation(d, "X", "Y") == Fraction(-1, 2)

    def test_zero_exponent_rejected(self, six_atom):
        with pytest.raises(ValidationError):
            expectation(six_atom, {"X": 0})

    def test_unknown_variable(self, six_atom):
        with pytest.raises(ConstraintMismatchError):
            expectation(six_atom, {"W": 1})

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_expectation_matches_fraction_loop(self, data):
        # Supports with negative and zero values; masses over mixed and
        # coprime denominators; exponents up to 4.
        value = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 5, 7, 12]))
        variables = tuple(
            FiniteRandomVariable(f"X{i}", tuple(sorted(values)))
            for i, values in enumerate(
                data.draw(st.lists(st.sets(value, min_size=1, max_size=4), min_size=1, max_size=3))
            )
        )
        atoms = data.draw(
            st.lists(
                st.tuples(*(st.integers(0, len(v.support) - 1) for v in variables)),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        weights = data.draw(
            st.lists(
                st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 2, 3, 4, 5, 7, 11, 13])),
                min_size=len(atoms),
                max_size=len(atoms),
            )
        )
        dist = JointDistribution(variables, {a: w / sum(weights) for a, w in zip(atoms, weights)})
        names = data.draw(st.lists(st.sampled_from(dist.names), min_size=1, unique=True))
        exponents = {name: data.draw(st.integers(1, 4)) for name in names}

        expected = Fraction(0)
        for atom, p in dist.mass.items():
            term = p
            for name, k in exponents.items():
                term *= dist.variables[dist.index(name)].support[atom[dist.index(name)]] ** k
            expected += term
        assert expectation(dist, exponents) == expected

    def test_correlation_six_atom(self, six_atom):
        assert correlation(six_atom, "X", "Y") == Fraction(-1, 2)
        assert correlation(six_atom, "Y", "Z") == Fraction(-1, 2)

    def test_correlation_undefined_on_point_mass(self):
        d = point_mass((pm_one("X"), pm_one("Y")), (1, 1))
        assert correlation(d, "X", "Y") is None

    def test_independent_pair_uncorrelated(self):
        d = uniform_distribution((pm_one("X"), pm_one("Y")))
        assert correlation(d, "X", "Y") == 0

    def test_correlation_equals_product_moment_for_centered_two_valued(self, rng):
        # for +-1 observables with zero means, rho(X,Y) = E(XY) exactly
        vs = (pm_one("X"), pm_one("Y"))
        found = 0
        for _ in range(2000):
            d = random_distribution(rng, variables=vs)
            if expectation(d, {"X": 1}) != 0 or expectation(d, {"Y": 1}) != 0:
                continue
            if variance(d, "X") == 0 or variance(d, "Y") == 0:
                continue
            found += 1
            assert correlation(d, "X", "Y") == expectation(d, {"X": 1, "Y": 1})
            if found == 20:
                break
        assert found == 20

    def test_irrational_correlation_is_exact_surd(self):
        # X uniform on {-1,0,1} (variance 2/3), Y = X on {-1,1} only:
        # build a pair with variance product that is not a perfect square.
        vs = (three_valued("X"), pm_one("Y"))
        d = distribution_from_values(
            vs,
            {(-1, -1): Fraction(1, 3), (0, 1): Fraction(1, 3), (1, 1): Fraction(1, 3)},
        )
        rho = correlation(d, "X", "Y")
        cov = covariance(d, "X", "Y")
        vx, vy = variance(d, "X"), variance(d, "Y")
        # rho is the exact surd cov / sqrt(vx*vy): its square is rational
        assert rho * rho == cov * cov / (vx * vy)
        assert rho > 0


class TestExpectationLinearity:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(-9, 9), st.integers(-9, 9))
    def test_linear_combination(self, seed, c1, c2):
        rng = random.Random(seed)
        d = random_distribution(rng)
        names = [v.name for v in d.variables]
        exps1 = {names[0]: 1}
        exps2 = {names[-1]: 2}
        lhs = sum(
            (
                p
                * (
                    Fraction(c1) * d.assignment(a)[names[0]]
                    + Fraction(c2) * d.assignment(a)[names[-1]] ** 2
                )
                for a, p in d.mass.items()
            ),
            Fraction(0),
        )
        rhs = Fraction(c1) * expectation(d, exps1) + Fraction(c2) * expectation(d, exps2)
        assert lhs == rhs


class TestPushforward:
    def test_pair_sum_table(self):
        d = uniform_distribution((pm_one("X"), pm_one("Y"), pm_one("Z")))
        out = pushforward(
            d,
            [("A", lambda s: s["X"] + s["Y"]), ("B", lambda s: s["Y"] + s["Z"])],
        )
        a = out.variables[0]
        assert a.support == (Fraction(-2), Fraction(0), Fraction(2))
        probs = {
            (va, vb): out.prob(
                event_where(out, lambda s, va=va, vb=vb: s["A"] == va and s["B"] == vb)
            )
            for va in (-2, 0, 2)
            for vb in (-2, 0, 2)
        }
        assert probs[(-2, -2)] == Fraction(1, 8)
        assert probs[(-2, 0)] == Fraction(1, 8)
        assert probs[(-2, 2)] == 0
        assert probs[(0, 0)] == Fraction(1, 4)

    def test_identity_roundtrip(self, six_atom):
        out = pushforward(
            six_atom, [(n, lambda s, n=n: s[n]) for n in ("X", "Y", "Z")]
        )
        assert out.mass == six_atom.mass
        assert [v.support for v in out.variables] == [
            v.support for v in six_atom.variables
        ]

    def test_mass_conservation_and_marginal_consistency(self, rng):
        for _ in range(25):
            d = random_distribution(rng)
            names = [v.name for v in d.variables]
            fns = [("S", lambda s: sum(s.values()))] + [
                (f"{n}_sq", lambda s, n=n: s[n] ** 2) for n in names
            ]
            out = pushforward(d, fns)
            assert sum(out.mass.values()) == 1
            # marginal of the pushforward = pushforward of the sub-list
            sub = pushforward(d, fns[:1])
            assert out.marginal(["S"]).mass == sub.mass


class TestCertaintyLemmas:
    def test_refining_the_condition(self, six_atom):
        # B: X = 1 (two atoms); A contains B plus extra; C: Y = 0
        b = event_value(six_atom, "X", 1)
        a = b | event_value(six_atom, "X", -1)
        c = event_value(six_atom, "Y", 0)
        report = check_certainty_lemma(six_atom, 1, a=a, b=b, c=c)
        assert report.holds

    def test_vacuous_when_intersection_null(self, six_atom):
        b = event_value(six_atom, "X", 1)
        a = b
        c = event_value(six_atom, "X", 0)  # disjoint from b
        report = check_certainty_lemma(six_atom, 1, a=a, b=b, c=c)
        assert report.status == "vacuous"
        assert "P(BC)>0" in report.detail

    def test_forced_equality(self):
        # On A = {X=1}, both X and Y are forced to 1.
        d = distribution_from_values(
            (pm_one("X"), pm_one("Y")),
            {(1, 1): Fraction(1, 2), (-1, -1): Fraction(1, 2)},
        )
        a = event_value(d, "X", 1)
        report = check_certainty_lemma(d, 2, a=a, x="X", y="Y", c=1)
        assert report.holds

    def test_transitivity(self, six_atom):
        c = event_value(six_atom, "Z", 1)
        b = c | event_value(six_atom, "Z", 0)
        a = b | event_value(six_atom, "Z", -1)
        report = check_certainty_lemma(six_atom, 4, a=a, b=b, c=c)
        assert report.holds

    def test_unknown_lemma_id(self, six_atom):
        with pytest.raises(ValidationError):
            check_certainty_lemma(six_atom, 6)

    def test_randomized_all_lemmas_hold(self, rng):
        """Constructive hypothesis-satisfying instances never break a conclusion."""
        from conftest import lemma_suite

        failures, checked = lemma_suite(rng, spaces=120)
        assert failures == 0
        assert checked > 100
