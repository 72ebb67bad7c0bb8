import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from jointfeas import (
    eval_bell_original,
    eval_chsh,
    eval_spin1_strengthened,
    eval_triple_lower_bound_with_means,
    eval_triple_moment_bounds,
    sqrt_fraction,
)
from jointfeas.algebraic import Surd, make_exact
from jointfeas.errors import JointfeasError, ValidationError
from jointfeas.files import parse_exact
from jointfeas.inequalities import InequalityReport

F = Fraction
GRID = [F(n, 2) for n in range(-2, 3)]  # -1 .. 1 step 1/2


class TestTripleMomentBounds:
    def test_all_minus_half_violated(self):
        report = eval_triple_moment_bounds("-1/2", "-1/2", "-1/2")
        assert report.verdict == "violated"
        assert report.slack == F(-1, 2)  # sum -3/2 misses -1 by 1/2

    def test_mixed_case_satisfied(self):
        report = eval_triple_moment_bounds("1/2", "-1/2", "-1/2")
        assert report.verdict == "satisfied"
        assert report.detail["lower_slack"] == F(1, 2)
        assert report.detail["upper_slack"] == F(1, 2)

    def test_zero_moments(self):
        report = eval_triple_moment_bounds(0, 0, 0)
        assert report.satisfied and report.slack == 1

    def test_symmetric_under_permutation(self):
        values = (F(1, 4), F(-3, 4), F(1, 2))
        reports = [
            eval_triple_moment_bounds(*perm) for perm in itertools.permutations(values)
        ]
        assert len({(r.verdict, r.slack) for r in reports}) == 1

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            eval_triple_moment_bounds("3/2", 0, 0)


class TestTripleLowerBoundWithMeans:
    def test_zero_mean_reduction(self):
        for moments in itertools.product(GRID, repeat=3):
            with_means = eval_triple_lower_bound_with_means(*moments, 0, 0, 0)
            plain = eval_triple_moment_bounds(*moments)
            assert with_means.slack == plain.detail["lower_slack"]
            assert with_means.satisfied == (plain.detail["lower_slack"] >= 0)

    def test_quarter_case(self):
        report = eval_triple_lower_bound_with_means(
            "1/4", "1/4", "1/4", "1/4", "1/4", "1/4"
        )
        assert report.satisfied and report.slack == F(1, 4)

    def test_violation_with_nonzero_means(self):
        report = eval_triple_lower_bound_with_means(
            "-1/2", "-1/2", "-1/2", "1/4", "1/4", "1/4"
        )
        assert report.verdict == "violated" and report.slack == F(-2)

    def test_means_strictly_inside(self):
        with pytest.raises(ValidationError):
            eval_triple_lower_bound_with_means(0, 0, 0, 1, 0, 0)

    def test_boundary_instance_is_feasible(self):
        # grid-search a slack-0 instance and confirm with the LP engine
        from jointfeas import FiniteRandomVariable, MomentConstraint, MomentProblem, decide

        found = None
        for e1 in GRID:
            slack = (e1 + 0 + 0) - 2 * (F(1, 4) * 3) + 1
            if slack == 0:
                found = (e1, F(0), F(0))
                break
        assert found is not None  # e1 = 1/2
        report = eval_triple_lower_bound_with_means(*found, "1/4", "1/4", "1/4")
        assert report.satisfied and report.slack == 0
        vs = tuple(FiniteRandomVariable(n, (F(-1), F(1))) for n in "XYZ")
        cons = [MomentConstraint.of({n: 1}, F(1, 4)) for n in "XYZ"]
        cons += [
            MomentConstraint.of({a: 1, b: 1}, m)
            for (a, b), m in zip((("X", "Y"), ("Y", "Z"), ("X", "Z")), found)
        ]
        assert decide(MomentProblem(vs, tuple(cons))).feasible


class TestBellOriginal:
    def test_not_sufficient_direction(self):
        report = eval_bell_original("-1/2", "-1/2", "-1/2")
        assert report.satisfied and report.slack == F(1, 2)

    def test_not_necessary_direction(self):
        report = eval_bell_original("1/2", "-1/2", "-1/2")
        assert report.verdict == "violated" and report.slack == F(-1, 2)

    def test_quantum_violation_with_exact_surds(self):
        m30 = -(sqrt_fraction(3)) / 2
        report = eval_bell_original(m30, m30, F(-1, 2))
        assert report.verdict == "violated"
        lo, hi = report.slack.enclosure(F(1, 10**12))
        assert hi - lo <= F(1, 10**12)
        assert hi < 0  # the enclosure certifies the sign
        # slack = 3/2 - sqrt(3)
        assert report.slack.a == F(3, 2) and report.slack.b == -1 and report.slack.d == 3


class TestCHSH:
    def test_boundary_combination(self):
        report = eval_chsh("1/2", "1/2", "1/2", "-1/2")
        assert report.satisfied and report.slack == 0

    def test_quantum_violation(self):
        h = sqrt_fraction(2) / 2
        report = eval_chsh(h, h, h, -h)
        assert report.verdict == "violated"
        # slack = 2 - 2 sqrt(2)
        assert report.slack.a == 2 and report.slack.b == -2 and report.slack.d == 2

    def test_all_zero(self):
        report = eval_chsh(0, 0, 0, 0)
        assert report.satisfied and report.slack == 2

    def test_all_four_sign_patterns_checked(self):
        # violating only the pattern with the minus on the first moment
        report = eval_chsh("-1/2", 1, 1, 1)
        assert report.verdict == "violated"
        assert report.detail["combination_0"] == F(7, 2)

    def test_relabeling_symmetry(self):
        # swapping the two settings on either side permutes the moments
        # but leaves the four-inequality verdict and slack unchanged
        moments = (F(3, 4), F(-1, 4), F(1, 2), F(1, 4))
        eab, eabp, eapb, eapbp = moments
        base = eval_chsh(*moments)
        swap_b = eval_chsh(eabp, eab, eapbp, eapb)
        swap_a = eval_chsh(eapb, eapbp, eab, eabp)
        assert base.slack == swap_b.slack == swap_a.slack
        assert base.verdict == swap_b.verdict == swap_a.verdict

    def test_higher_spin_bound(self):
        report = eval_chsh(1, 1, 1, 1, j=F(1))
        assert report.satisfied and report.slack == 0  # |0| + |2| = 2 = 2j
        report = eval_chsh("9/4", 0, 0, 0, j=F(3, 2))
        assert report.satisfied and report.slack == F(3, 4)
        with pytest.raises(ValidationError):
            eval_chsh(2, 0, 0, 0, j=F(1))  # outside [-1, 1] for spin 1

    def test_normalized_mode(self):
        # |1 - 1| + |1 + (-1)| = 0 against the normalized bound 2
        report = eval_chsh(1, 1, 1, -1, j=F(1), normalized=True)
        assert report.satisfied and report.slack == 2
        with pytest.raises(ValidationError):
            eval_chsh(0, 0, 0, 0, j=F(1, 3))

    def test_spin_is_read_as_an_exact_rational(self):
        for j in (True, 0.5, "x"):
            with pytest.raises(ValidationError, match="not a rational number"):
                eval_chsh(0, 0, 0, 0, j=j)
        assert eval_chsh(1, 1, 1, 1, j="1").slack == 0


class TestSpin1Strengthened:
    def test_extreme_moments_kill_extra_term(self):
        report = eval_spin1_strengthened(1, 1, 1, 1)
        assert report.satisfied and report.slack == 0

    def test_zero_moments_boundary(self):
        report = eval_spin1_strengthened(0, 0, 0, 0)
        assert report.satisfied and report.slack == 0
        assert report.detail["extra_term"] == 2

    def test_half_moments(self):
        report = eval_spin1_strengthened("1/2", "1/2", "1/2", "1/2")
        assert report.satisfied and report.slack == F(1, 2)

    def test_sharper_than_plain_chsh(self):
        for moments in itertools.product(GRID, repeat=4):
            plain = eval_chsh(*moments, j=F(1))
            sharp = eval_spin1_strengthened(*moments)
            # extra term is nonnegative, so the sharpened slack never exceeds
            assert sharp.slack <= plain.slack


# ---------------------------------------------------------------------------
# Reference: the evaluators as they were, deciding every order by the sign
# of a difference
# ---------------------------------------------------------------------------


def _exact_sign(value):
    if isinstance(value, Surd):
        return value.sign()
    return (value > 0) - (value < 0)


def _exact_abs(value):
    return value if _exact_sign(value) >= 0 else -value


def _exact_min(*values):
    best = values[0]
    for v in values[1:]:
        if _exact_sign(v - best) < 0:
            best = v
    return best


def _reference_report(inequality_id, inputs, slack, notes="", **detail):
    verdict = "violated" if _exact_sign(slack) < 0 else "satisfied"
    return InequalityReport(inequality_id, dict(inputs), verdict, slack, notes, dict(detail))


def _reference_within_unit(name, value):
    if _exact_sign(value - 1) > 0 or _exact_sign(value + 1) < 0:
        raise ValidationError(f"{name} = {value} is outside [-1, 1]")
    return value


def _reference_pairs(names, values):
    return {k: _reference_within_unit(k, make_exact(v)) for k, v in zip(names, values)}


def reference_triple_moment_bounds(exy, eyz, exz):
    e = _reference_pairs(("exy", "eyz", "exz"), (exy, eyz, exz))
    total = e["exy"] + e["eyz"] + e["exz"]
    lower_slack = total + 1
    upper_slack = 1 + 2 * _exact_min(e["exy"], e["eyz"], e["exz"]) - total
    slack = _exact_min(lower_slack, upper_slack)
    return _reference_report(
        "triple_moment_bounds", e, slack, lower_slack=lower_slack, upper_slack=upper_slack, sum=total
    )


def reference_triple_lower_bound_with_means(exy, eyz, exz, x0, y0, z0):
    e = _reference_pairs(("exy", "eyz", "exz"), (exy, eyz, exz))
    means = {k: make_exact(v) for k, v in (("x0", x0), ("y0", y0), ("z0", z0))}
    for k, v in means.items():
        if _exact_sign(v - 1) >= 0 or _exact_sign(v + 1) <= 0:
            raise ValidationError(f"{k} = {v} must lie strictly inside (-1, 1)")
    slack = e["exy"] + e["eyz"] + e["exz"] - 2 * (means["x0"] + means["y0"] + means["z0"]) + 1
    return _reference_report("triple_lower_bound_with_means", {**e, **means}, slack)


def reference_bell_original(exy, eyz, exz):
    e = _reference_pairs(("exy", "eyz", "exz"), (exy, eyz, exz))
    slack = 1 + e["eyz"] - _exact_abs(e["exy"] - e["exz"])
    return _reference_report("bell_original", e, slack)


def reference_chsh(eab, eabp, eapb, eapbp, j=F(1, 2), normalized=False):
    j = Fraction(j)
    if j <= 0 or (2 * j).denominator != 1:
        raise ValidationError(f"spin must be a positive half-integer, got {j}")
    e = {k: make_exact(v) for k, v in (("eab", eab), ("eabp", eabp), ("eapb", eapb), ("eapbp", eapbp))}
    if j == F(1, 2):
        for k, v in e.items():
            _reference_within_unit(k, v)
        sums = {}
        slacks = []
        for flip in range(4):
            signs = [1, 1, 1, 1]
            signs[flip] = -1
            s = signs[0] * e["eab"] + signs[1] * e["eabp"] + signs[2] * e["eapb"] + signs[3] * e["eapbp"]
            sums[f"combination_{flip}"] = s
            slacks.append(2 - s)
            slacks.append(s + 2)
        slack = _exact_min(*slacks)
        return _reference_report("chsh", e, slack, notes="two-valued convention, four inequalities", **sums)
    bound = j * j
    for k, v in e.items():
        if _exact_sign(v - bound) > 0 or _exact_sign(v + bound) < 0:
            raise ValidationError(f"{k} = {v} is outside [-{bound}, {bound}] for spin {j}")
    if normalized:
        e = {k: v / bound for k, v in e.items()}
        limit = Fraction(2)
        note = f"spin {j}, observables normalized to +-1, bound 2"
    else:
        limit = 2 * j
        note = f"spin {j}, single absolute bound 2j = {limit}"
    lhs = _exact_abs(e["eab"] - e["eabp"]) + _exact_abs(e["eapb"] + e["eapbp"])
    return _reference_report("chsh", e, limit - lhs, notes=note, lhs=lhs)


def reference_spin1_strengthened(eab, eabp, eapb, eapbp):
    e = _reference_pairs(("eab", "eabp", "eapb", "eapbp"), (eab, eabp, eapb, eapbp))
    extra = 2 * (_exact_abs(e["eab"]) - 1) * (_exact_abs(e["eabp"]) - 1)
    lhs = _exact_abs(e["eab"] - e["eabp"]) + _exact_abs(e["eapb"] + e["eapbp"]) + extra
    return _reference_report("spin1_strengthened", e, 2 - lhs, lhs=lhs, extra_term=extra)


def outcome(evaluate, *args, **kwargs):
    """A report as text, field by field, or the error an evaluator raised."""
    try:
        r = evaluate(*args, **kwargs)
    except JointfeasError as exc:
        return type(exc).__name__, str(exc)

    def text(values):
        return [(k, type(v).__name__, str(v)) for k, v in values.items()]

    return r.inequality_id, text(r.inputs), r.verdict, str(r.slack), r.notes, text(r.detail)


# Rationals on small grids, in range and a little outside, with the
# endpoints +-1 and 0 drawn often.
rationals = st.one_of(
    st.sampled_from([F(-1), F(0), F(1)]),
    st.builds(F, st.integers(-14, 14), st.sampled_from([2, 3, 4, 6, 8, 12])),
)
# -cos of multiples of 30 and 45 degrees: rationals and surds in sqrt(2) or sqrt(3).
surds = st.one_of(st.integers(0, 11).map(lambda k: 30 * k), st.integers(0, 7).map(lambda k: 45 * k)).map(
    lambda deg: parse_exact({"minus_cos_degrees": deg})
)
moments = st.one_of(rationals, rationals, surds)


@st.composite
def chsh_facets(draw):
    """Three moments, and a fourth that puts one combination on +-2."""
    values = draw(st.lists(rationals, min_size=3, max_size=3))
    k, side = draw(st.integers(0, 3)), draw(st.sampled_from([-2, 2]))
    signs = [1, 1, 1, 1]
    signs[k] = -1
    last = (side - sum(s * v for s, v in zip(signs, values))) * signs[3]
    return [*values, last]


chsh_inputs = st.one_of(st.lists(moments, min_size=4, max_size=4), chsh_facets())


@settings(max_examples=300, deadline=None)
@given(st.lists(moments, min_size=3, max_size=3))
def test_triple_evaluators_match_the_sign_of_difference_reference(values):
    assert outcome(eval_triple_moment_bounds, *values) == outcome(reference_triple_moment_bounds, *values)
    assert outcome(eval_bell_original, *values) == outcome(reference_bell_original, *values)


@settings(max_examples=300, deadline=None)
@given(st.lists(moments, min_size=3, max_size=3), st.lists(moments, min_size=3, max_size=3))
def test_means_evaluator_matches_the_sign_of_difference_reference(values, means):
    expected = outcome(reference_triple_lower_bound_with_means, *values, *means)
    assert outcome(eval_triple_lower_bound_with_means, *values, *means) == expected


@settings(max_examples=400, deadline=None)
@given(chsh_inputs)
# sqrt(3) and sqrt(2) met in either order: the error names the smaller radicand first.
@example([parse_exact({"minus_cos_degrees": deg}) for deg in (30, 30, 45, 30)])
@example([F(-1), *(parse_exact({"minus_cos_degrees": deg}) for deg in (30, 150, 45))])
def test_chsh_evaluators_match_the_sign_of_difference_reference(values):
    assert outcome(eval_chsh, *values) == outcome(reference_chsh, *values)
    assert outcome(eval_spin1_strengthened, *values) == outcome(reference_spin1_strengthened, *values)


@settings(max_examples=300, deadline=None)
@given(chsh_inputs, st.sampled_from([F(1), F(3, 2)]), st.booleans(), st.booleans())
def test_spin_j_chsh_matches_the_sign_of_difference_reference(values, j, normalized, stretch):
    if stretch:  # spread the inputs over [-j^2, j^2] and a little past it
        values = [v * j * j for v in values]
    expected = outcome(reference_chsh, *values, j=j, normalized=normalized)
    assert outcome(eval_chsh, *values, j=j, normalized=normalized) == expected
