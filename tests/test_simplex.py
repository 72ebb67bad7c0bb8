import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_problem
from jointfeas import FiniteRandomVariable, MomentConstraint, MomentProblem, decide, feasibility, pm_one, simplex
from jointfeas.simplex import solve_equality_feasibility

F = Fraction


def check_farkas(rows, rhs, farkas):
    n = len(rows[0])
    for j in range(n):
        assert sum(farkas[i] * rows[i][j] for i in range(len(rows))) >= 0
    assert sum(farkas[i] * rhs[i] for i in range(len(rows))) < 0


def test_empty_system_is_feasible():
    assert solve_equality_feasibility([], []) == simplex.EqualityFeasibility(True, (), None, 0)


def test_simple_feasible_system():
    # x1 + x2 = 1, x1 - x2 = 0  ->  x = (1/2, 1/2)
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    rhs = [F(1), F(0)]
    res = solve_equality_feasibility(rows, rhs)
    assert res.feasible
    x = res.solution
    assert x[0] + x[1] == 1 and x[0] - x[1] == 0
    assert all(v >= 0 for v in x)


def test_infeasible_system_gives_valid_farkas():
    # x1 + x2 = 1, x1 + x2 = 2 simultaneously
    rows = [[F(1), F(1)], [F(1), F(1)]]
    rhs = [F(1), F(2)]
    res = solve_equality_feasibility(rows, rhs)
    assert not res.feasible
    check_farkas(rows, rhs, res.farkas)


def test_negative_rhs_normalization():
    # -x1 = -3 -> x1 = 3
    rows = [[F(-1), F(0)]]
    rhs = [F(-3)]
    res = solve_equality_feasibility(rows, rhs)
    assert res.feasible and res.solution[0] == 3


def test_nonnegativity_binds():
    # x1 - x2 = -1 with x >= 0 is feasible (x2 = 1); x1 alone cannot be negative
    res = solve_equality_feasibility([[F(1), F(-1)]], [F(-1)])
    assert res.feasible
    res = solve_equality_feasibility([[F(1)]], [F(-1)])
    assert not res.feasible
    check_farkas([[F(1)]], [F(-1)], res.farkas)


def test_degenerate_zero_row():
    rows = [[F(0), F(0)], [F(1), F(1)]]
    res = solve_equality_feasibility(rows, [F(0), F(1)])
    assert res.feasible
    res = solve_equality_feasibility(rows, [F(1), F(1)])
    assert not res.feasible
    check_farkas(rows, [F(1), F(1)], res.farkas)


def test_exactness_with_awkward_fractions():
    rows = [[F(1, 3), F(1, 7), F(2, 5)], [F(5, 11), F(-3, 13), F(1, 2)]]
    rhs = [F(9, 35), F(1, 4)]
    res = solve_equality_feasibility(rows, rhs)
    if res.feasible:
        x = res.solution
        for row, b in zip(rows, rhs):
            assert sum(c * v for c, v in zip(row, x)) == b
    else:
        check_farkas(rows, rhs, res.farkas)


# ---------------------------------------------------------------------------
# Float guide, exact certificate and exact fallback
# ---------------------------------------------------------------------------

def exact_loop(rows, rhs):
    matrix, dens = simplex._integral_rows(rows)
    return simplex._exact_bland(matrix, dens, rhs, [(-1 if b < 0 else 1) for b in rhs])


def fraction_rows(matrix, dens):
    """The rational rows ``matrix[i] / dens[i]``."""
    return [[F(v, d) for v in row] for row, d in zip(matrix.tolist(), dens)]


def check_result(rows, rhs, res):
    """The solution or Farkas vector checks exactly against the rows."""
    if res.feasible:
        assert res.farkas is None
        x = res.solution
        assert len(x) == len(rows[0]) and all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum((c * v for c, v in zip(row, x)), F(0)) == b
    else:
        assert res.solution is None
        check_farkas(rows, rhs, res.farkas)


small = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
huge_denominator = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**12))
entry = st.one_of(st.just(F(0)), small, small, huge_denominator)


@st.composite
def systems(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    rows = [
        [F(0)] * n if draw(st.integers(0, 5)) == 0 else draw(st.lists(entry, min_size=n, max_size=n))
        for _ in range(m)
    ]
    if draw(st.booleans()):
        # b = A x for some x >= 0: feasible by construction
        x = draw(st.lists(st.one_of(st.just(F(0)), small.map(abs)), min_size=n, max_size=n))
        rhs = [sum((c * v for c, v in zip(row, x)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_float_guided_result_checks_exactly_and_matches_exact_verdict(system):
    rows, rhs = system
    res = solve_equality_feasibility(rows, rhs)
    check_result(rows, rhs, res)
    assert res.feasible == exact_loop(rows, rhs).feasible


def spy_exact_loop(monkeypatch):
    calls = []
    real = simplex._exact_bland

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simplex, "_exact_bland", spy)
    return calls


def test_guide_follows_bland_path_on_moment_problems(monkeypatch):
    # Small-denominator moment LPs: the guide takes Bland's exact path,
    # so every field (including the pivot count) matches the exact loop,
    # and the exact certificate accepts every final basis.
    rng = random.Random(7)
    lps = [feasibility._constraint_rows(random_problem(rng)) for _ in range(150)]
    expected = [exact_loop(fraction_rows(matrix, dens), rhs) for matrix, dens, rhs in lps]
    calls = spy_exact_loop(monkeypatch)
    assert [solve_equality_feasibility(matrix, rhs, dens) for matrix, dens, rhs in lps] == expected
    assert calls == []


@pytest.mark.parametrize(
    "rows,rhs",
    [
        # the Bareiss pivot of B^T is negative on the final basis
        ([[F(-3), F(-3), F(0)], [F(1), F(0), F(-1)], [F(2), F(0), F(-1)]], [F(-3), F(-2), F(0)]),
        ([[F(2), F(2)], [F(-3), F(3)], [F(-3), F(0)]], [F(2), F(2), F(-2)]),
    ],
)
def test_infeasible_basis_is_certified_without_fallback(monkeypatch, rows, rhs):
    expected = exact_loop(rows, rhs)
    assert not expected.feasible
    calls = spy_exact_loop(monkeypatch)
    assert solve_equality_feasibility(rows, rhs) == expected
    assert calls == []


FALLBACK_SYSTEMS = [
    ([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)]),  # feasible, x = (1/2, 1/2)
    ([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)]),  # infeasible
    ([[F(1, 3), F(-2), F(0)], [F(1), F(1), F(1)]], [F(-1, 3), F(1)]),
]


@pytest.mark.parametrize("rows,rhs", FALLBACK_SYSTEMS)
@pytest.mark.parametrize(
    "wrong_basis",
    [
        lambda n, m: (list(range(n, n + m)), 0),  # all-artificial start basis
        lambda n, m: ([0] * m, 3),  # singular basis
    ],
)
def test_wrong_guide_basis_falls_back_to_exact_loop(monkeypatch, rows, rhs, wrong_basis):
    expected = exact_loop(rows, rhs)
    calls = spy_exact_loop(monkeypatch)
    monkeypatch.setattr(simplex, "_float_guide", lambda tab, n, m: wrong_basis(n, m))
    res = solve_equality_feasibility(rows, rhs)
    assert res == expected
    check_result(rows, rhs, res)
    assert len(calls) == 1


def test_entries_beyond_float_range_fall_back_to_exact_loop(monkeypatch):
    big = F(10**400)
    rows = [[big, F(1), F(0)], [F(1), F(1), F(1)]]
    for rhs in ([big, F(1)], [-big, F(1)]):
        calls = spy_exact_loop(monkeypatch)
        res = solve_equality_feasibility(rows, rhs)
        assert len(calls) == 1
        assert res == exact_loop(rows, rhs)
        check_result(rows, rhs, res)


@pytest.mark.filterwarnings("error")
def test_float_overflow_in_pivots_stays_silent_and_exact():
    # Entries that fit a float but whose products do not: the guide may
    # see inf or nan, yet the result is exact and no warning escapes.
    big = F(10**200)
    rows = [[F(1), big, F(0)], [big, F(1), F(1)], [F(1), F(1), F(1)]]
    for rhs in ([F(0), F(1), F(1)], [F(0), F(1), F(2)], [F(1), -big, F(1)]):
        res = solve_equality_feasibility(rows, rhs)
        check_result(rows, rhs, res)
        assert res.feasible == exact_loop(rows, rhs).feasible


def test_primal_infeasible_guide_basis_falls_back(monkeypatch):
    # -x_0 + x_1 = 1 is feasible; on the basis {x_0}, x_0 = -1 and the
    # dual y = 0 passes the column test but not y.b > 0.
    rows, rhs = [[F(-1), F(1)]], [F(1)]
    expected = exact_loop(rows, rhs)
    calls = spy_exact_loop(monkeypatch)
    monkeypatch.setattr(simplex, "_float_guide", lambda tab, n, m: ([0], 1))
    assert solve_equality_feasibility(rows, rhs) == expected
    assert expected.feasible and len(calls) == 1


@pytest.mark.parametrize("rows,rhs", FALLBACK_SYSTEMS)
def test_pivot_cap_falls_back_to_exact_loop(monkeypatch, rows, rhs):
    expected = exact_loop(rows, rhs)
    assert expected.pivots > 0
    calls = spy_exact_loop(monkeypatch)
    monkeypatch.setattr(simplex, "_PIVOT_CAP_PER_COLUMN", 0)
    assert solve_equality_feasibility(rows, rhs) == expected
    assert len(calls) == 1


def test_pivot_cap_fallback_keeps_decide_results(monkeypatch):
    def triple(pair):
        names = ("X", "Y", "Z")
        pairs = (("X", "Y"), ("Y", "Z"), ("X", "Z"))
        return MomentProblem(
            tuple(pm_one(n) for n in names),
            tuple(
                [MomentConstraint.of({n: 1}, 0) for n in names]
                + [MomentConstraint.of({a: 1, b: 1}, pair) for a, b in pairs]
            ),
        )

    problems = [triple("-1/2"), triple("-1/3"), triple("1/4")]
    guided = [decide(p) for p in problems]
    calls = spy_exact_loop(monkeypatch)
    monkeypatch.setattr(simplex, "_PIVOT_CAP_PER_COLUMN", 0)
    forced = [decide(p) for p in problems]
    assert len(calls) == len(problems)
    for a, b in zip(guided, forced):
        assert (a.verdict, a.certificate, a.detail) == (b.verdict, b.certificate, b.detail)
        assert (a.witness and a.witness.mass) == (b.witness and b.witness.mass)


def equal_pair_moment_lp(n, pair):
    """+-1 variables with zero means and every pair moment equal to ``pair``."""
    names = [f"X{i}" for i in range(n)]
    problem = MomentProblem(
        tuple(pm_one(v) for v in names),
        tuple(
            [MomentConstraint.of({v: 1}, 0) for v in names]
            + [MomentConstraint.of({a: 1, b: 1}, pair) for a, b in combinations(names, 2)]
        ),
    )
    matrix, dens, rhs = feasibility._constraint_rows(problem)
    return fraction_rows(matrix, dens), rhs


# Verdicts and pivot counts recorded from an exact Bland loop written
# independently of _bland (a list-of-lists Fraction tableau); they pin
# the entering and leaving choices, tie-breaks included.
PINNED_BLAND_PATHS = [
    pytest.param(6, F(-1, 6), True, 76, id="n6-feasible"),
    pytest.param(6, F(-1, 4), False, 62, id="n6-infeasible"),
    pytest.param(7, F(-1, 8), True, 352, id="n7-feasible"),
    pytest.param(7, F(-1, 5), False, 122, id="n7-infeasible"),
]


@pytest.mark.parametrize("n,pair,feasible,pivots", PINNED_BLAND_PATHS)
def test_bland_path_is_pinned_on_equal_pair_moments(n, pair, feasible, pivots):
    rows, rhs = equal_pair_moment_lp(n, pair)
    signs = [(-1 if b < 0 else 1) for b in rhs]
    # The capped guide first: a loop that leaves Bland's path fails here
    # rather than cycling in the uncapped exact loop.
    matrix, dens = simplex._integral_rows(rows)
    guide = simplex._float_guide(simplex._tableau(matrix, dens, rhs, signs, float), len(rows[0]), len(rows))
    assert guide is not None and guide[1] == pivots
    res = solve_equality_feasibility(rows, rhs)
    assert (res.feasible, res.pivots) == (feasible, pivots)
    check_result(rows, rhs, res)
    if n == 6:
        assert exact_loop(rows, rhs) == res


def certify_both_orders(matrix, dens, rhs, basis, pivots):
    signs = [(-1 if b < 0 else 1) for b in rhs]
    return [
        simplex._certify(matrix, dens, rhs, signs, basis, pivots, dual_first=dual_first)
        for dual_first in (False, True)
    ]


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_certify_result_does_not_depend_on_check_order(system, data):
    # No basis passes both the primal and the Farkas check, so whichever
    # runs first, the result is the same: on the guide's basis and on
    # arbitrary (possibly singular or wrong) ones.
    rows, rhs = system
    matrix, dens = simplex._integral_rows(rows)
    m, n = len(rows), len(rows[0])
    arbitrary = data.draw(st.lists(st.integers(0, n + m - 1), min_size=m, max_size=m))
    primal_first, dual_first = certify_both_orders(matrix, dens, rhs, arbitrary, 0)
    assert primal_first == dual_first
    signs = [(-1 if b < 0 else 1) for b in rhs]
    final = simplex._bland(simplex._tableau(matrix, dens, rhs, signs, object), n, m, 0, None)
    primal_first, dual_first = certify_both_orders(matrix, dens, rhs, *final)
    assert primal_first == dual_first == exact_loop(rows, rhs)


@pytest.mark.parametrize("n,pair,feasible,pivots", PINNED_BLAND_PATHS)
def test_certify_order_is_free_on_pinned_moment_lps(monkeypatch, n, pair, feasible, pivots):
    rows, rhs = equal_pair_moment_lp(n, pair)
    matrix, dens = simplex._integral_rows(rows)
    signs = [(-1 if b < 0 else 1) for b in rhs]
    guide = simplex._float_guide(simplex._tableau(matrix, dens, rhs, signs, float), len(rows[0]), len(rows))
    primal_first, dual_first = certify_both_orders(matrix, dens, rhs, *guide)
    assert (primal_first.feasible, primal_first.pivots) == (feasible, pivots)

    # The guide's objective points at the check that succeeds: one exact
    # solve per LP, infeasible ones included.
    solves = []
    real = simplex.echelon
    monkeypatch.setattr(simplex, "echelon", lambda *a, **k: solves.append(1) or real(*a, **k))
    assert primal_first == dual_first == solve_equality_feasibility(rows, rhs)
    assert len(solves) == 1


@settings(max_examples=100, deadline=None)
@given(systems())
def test_exact_tableau_holds_only_fractions(system):
    rows, rhs = system
    m, n = len(rows), len(rows[0])
    matrix, dens = simplex._integral_rows(rows)
    tab = simplex._tableau(matrix, dens, rhs, [(-1 if b < 0 else 1) for b in rhs], object)
    assert simplex._bland(tab, n, m, 0, None) is not None
    assert all(type(v) is Fraction for v in tab.flat)


def fraction_filled_tableau(rows, rhs, signs):
    """The float tableau filled cell by cell from Fraction rows: float(Fraction) per cell."""
    m, n = len(rows), len(rows[0])
    tab = np.full((m + 1, n + m + 1), 0.0)
    tab[:m, :n] = rows
    tab[:m, -1] = rhs
    tab[:m] *= np.array(signs)[:, None]
    tab[np.arange(m), n + np.arange(m)] = 1.0
    tab[m] = -tab[:m].sum(axis=0)
    tab[m, n : n + m] = 0.0
    return tab


wide = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30))


@st.composite
def integer_lps(draw):
    """Integer rows with their denominators: cleared rational systems, or moment LPs."""
    if draw(st.booleans()):
        rows, rhs = draw(systems())
        rows = [[draw(st.one_of(st.just(v), wide)) for v in row] for row in rows]
        matrix, dens = simplex._integral_rows(rows)
        return matrix, dens, rhs
    values = st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**9))
    names = ["X", "Y"][: draw(st.integers(1, 2))]
    variables = tuple(
        FiniteRandomVariable(v, tuple(sorted(draw(st.sets(values, min_size=1, max_size=3)))))
        for v in names
    )
    monomial = st.dictionaries(st.sampled_from(names), st.integers(1, 3), min_size=1)
    exponents = draw(
        st.lists(monomial, min_size=1, max_size=3, unique_by=lambda e: tuple(sorted(e.items())))
    )
    problem = MomentProblem(
        variables,
        tuple(MomentConstraint.of(e, draw(values), draw(st.sampled_from(["==", "<="]))) for e in exponents),
        allow_higher_order=True,
    )
    return feasibility._constraint_rows(problem)


@settings(max_examples=300, deadline=None)
@given(integer_lps())
def test_float_tableau_is_bit_identical_to_fraction_fill(lp):
    matrix, dens, rhs = lp
    signs = [(-1 if b < 0 else 1) for b in rhs]
    rows = fraction_rows(matrix, dens)
    tab = simplex._tableau(matrix, dens, rhs, signs, float)
    assert tab.tobytes() == fraction_filled_tableau(rows, rhs, signs).tobytes()


def test_float_tableau_uses_both_division_paths():
    # float64 division would misround the last two: an entry or a
    # denominator that is not an exact double.
    small = np.array([[5, -(2**52)], [1, 1]], np.int64)
    large = np.array([[5, 2**53 + 1], [1, 1]], np.int64)
    for matrix, dens in ((small, [7, 1]), (large, [3, 1]), (small, [3**40, 1])):
        rhs, signs = [F(1), F(1)], [1, 1]
        expected = fraction_filled_tableau(fraction_rows(matrix, dens), rhs, signs)
        assert simplex._tableau(matrix, dens, rhs, signs, float).tobytes() == expected.tobytes()
