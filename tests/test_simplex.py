import gc
import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_problem, rational_lp
from jointfeas import (
    FiniteRandomVariable, MomentConstraint, MomentProblem, check, decide, feasibility, linalg, pm_one, simplex
)
from jointfeas.simplex import solve_equality_feasibility

F = Fraction


def check_farkas(rows, rhs, farkas):
    n = len(rows[0])
    for j in range(n):
        assert sum(farkas[i] * rows[i][j] for i in range(len(rows))) >= 0
    assert sum(farkas[i] * rhs[i] for i in range(len(rows))) < 0


def test_empty_system_is_feasible():
    assert solve_equality_feasibility([], [], 1) == simplex.EqualityFeasibility(True, {}, None, 0)


def test_simple_feasible_system():
    # x1 + x2 = 1, x1 - x2 = 0  ->  x = (1/2, 1/2)
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    rhs = [F(1), F(0)]
    res = solve_equality_feasibility(*rational_lp(rows, rhs))
    assert res.feasible and res.solution == {0: F(1, 2), 1: F(1, 2)}


def test_infeasible_system_gives_valid_farkas():
    # x1 + x2 = 1, x1 + x2 = 2 simultaneously
    rows = [[F(1), F(1)], [F(1), F(1)]]
    rhs = [F(1), F(2)]
    res = solve_equality_feasibility(*rational_lp(rows, rhs))
    assert not res.feasible
    check_farkas(rows, rhs, res.farkas)


def test_negative_rhs_normalization():
    # -x1 = -3 -> x1 = 3
    rows = [[F(-1), F(0)]]
    rhs = [F(-3)]
    res = solve_equality_feasibility(*rational_lp(rows, rhs))
    assert res.feasible and res.solution == {0: F(3)}


def test_nonnegativity_binds():
    # x1 - x2 = -1 with x >= 0 is feasible (x2 = 1); x1 alone cannot be negative
    res = solve_equality_feasibility(*rational_lp([[F(1), F(-1)]], [F(-1)]))
    assert res.feasible
    res = solve_equality_feasibility(*rational_lp([[F(1)]], [F(-1)]))
    assert not res.feasible
    check_farkas([[F(1)]], [F(-1)], res.farkas)


def test_degenerate_zero_row():
    rows = [[F(0), F(0)], [F(1), F(1)]]
    res = solve_equality_feasibility(*rational_lp(rows, [F(0), F(1)]))
    assert res.feasible
    res = solve_equality_feasibility(*rational_lp(rows, [F(1), F(1)]))
    assert not res.feasible
    check_farkas(rows, [F(1), F(1)], res.farkas)


def test_exactness_with_awkward_fractions():
    rows = [[F(1, 3), F(1, 7), F(2, 5)], [F(5, 11), F(-3, 13), F(1, 2)]]
    rhs = [F(9, 35), F(1, 4)]
    check_result(rows, rhs, solve_equality_feasibility(*rational_lp(rows, rhs)))


# ---------------------------------------------------------------------------
# Float guide, exact certificate and exact fallback
# ---------------------------------------------------------------------------

def signs_of(rhs):
    return [(-1 if b < 0 else 1) for b in rhs]


def integer_lp(rows, rhs):
    """``(matrix, den, signs, b, scale)`` of the integer tableau."""
    matrix, _, den = rational_lp(rows, rhs)
    return (matrix, den, *simplex._scales(den, rhs))


def exact_loop(rows, rhs):
    """The Python-int exact loop from a cold start, as the fallback runs it."""
    matrix, den, signs, b, scale = integer_lp(rows, rhs)
    tab = simplex._integer_tableau(matrix, signs, b, object)
    return simplex._exact_loop(tab, len(rows[0]), len(rows), signs, scale)


def int64_tableau(matrix, signs, b):
    """The int64 tableau the solve admits for this target, or None."""
    return simplex._Template(matrix).tableau(matrix, signs, b)


def int64_path(rows, rhs):
    """The int64 loop's result, or None when the system is over the bound."""
    matrix, den, signs, b, scale = integer_lp(rows, rhs)
    tab = int64_tableau(matrix, signs, b)
    return None if tab is None else simplex._exact_loop(tab, len(rows[0]), len(rows), signs, scale)


def guided_path(rows, rhs):
    """The float guide's basis settled by ``_certify``, or None when it proves nothing."""
    matrix, den, signs, b, scale = integer_lp(rows, rhs)
    guide = simplex._guided(matrix, linalg.peak(matrix), den, rhs, signs)
    return None if guide is None else simplex._certify(matrix, linalg.peak(matrix), signs, b, scale, *guide)


def force_guide(monkeypatch):
    """No system passes the int64 bound, so each one goes to the float guide."""
    monkeypatch.setattr(simplex, "_INT64_SAFE", 0)


def bland_basis(matrix, den, rhs):
    """The final basis and pivot count of Bland's rule, run by the exact loop on Python ints."""
    m, n = matrix.shape
    signs, b, _ = simplex._scales(den, rhs)
    return simplex._integer_bland(simplex._integer_tableau(matrix, signs, b, object), n, m)[:2]


def fraction_rows(matrix, den):
    """The rational rows ``matrix / den``."""
    return [[F(v, den) for v in row] for row in matrix.tolist()]


def check_result(rows, rhs, res):
    """The solution or Farkas vector checks exactly against the rows."""
    if res.feasible:
        assert res.farkas is None
        x = res.solution
        assert list(x) == sorted(x) and all(0 <= j < len(rows[0]) and v > 0 for j, v in x.items())
        for row, b in zip(rows, rhs):
            assert sum((row[j] * v for j, v in x.items()), F(0)) == b
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
    res = solve_equality_feasibility(*rational_lp(rows, rhs))
    check_result(rows, rhs, res)
    assert res.feasible == exact_loop(rows, rhs).feasible


def spy_exact_loop(monkeypatch):
    """Record each run of the Python-int fallback (the exact loop on an object tableau)."""
    calls = []
    real = simplex._exact_loop

    def spy(tab, *args):
        if tab.dtype == object:
            calls.append(args)
        return real(tab, *args)

    monkeypatch.setattr(simplex, "_exact_loop", spy)
    return calls


def spy_guide(monkeypatch):
    """Record each run of the float guide."""
    calls = []
    real = simplex._float_guide
    monkeypatch.setattr(simplex, "_float_guide", lambda *args: calls.append(args) or real(*args))
    return calls


def test_guide_follows_bland_path_on_moment_problems(monkeypatch):
    # Small-denominator moment LPs.  Under its own pricing the guide may
    # end on another optimal basis than Bland's rule, but with the exact
    # loop's verdict and a result that checks exactly.  Bland's final
    # basis, certified exactly, gives the exact loop's result field for
    # field (the pivot count included).  Either way the exact certificate
    # accepts every final basis: no LP falls back to the Python-int loop.
    rng = random.Random(7)
    lps = [feasibility._constraint_rows(random_problem(rng)) for _ in range(150)]
    expected = [exact_loop(fraction_rows(matrix, den), rhs) for matrix, den, rhs in lps]
    force_guide(monkeypatch)
    calls = spy_exact_loop(monkeypatch)
    for (matrix, den, rhs), exact in zip(lps, expected):
        res = solve_equality_feasibility(matrix, rhs, den)
        assert res.feasible == exact.feasible
        check_result(fraction_rows(matrix, den), rhs, res)
        assert certify_both_orders(matrix, den, rhs, *bland_basis(matrix, den, rhs)) == [exact, exact]
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
    # Under its own pricing the guide may end on another basis; its
    # Farkas vector checks exactly.  Bland's final basis, the one whose
    # Bareiss pivot is negative, certifies to the exact loop's result.
    expected = exact_loop(rows, rhs)
    assert not expected.feasible
    force_guide(monkeypatch)
    calls = spy_exact_loop(monkeypatch)
    res = solve_equality_feasibility(*rational_lp(rows, rhs))
    assert not res.feasible
    check_result(rows, rhs, res)
    matrix, _, den = rational_lp(rows, rhs)
    assert certify_both_orders(matrix, den, rhs, *bland_basis(matrix, den, rhs)) == [expected, expected]
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
    force_guide(monkeypatch)
    calls = spy_exact_loop(monkeypatch)
    monkeypatch.setattr(simplex, "_float_guide", lambda tab, n, m: wrong_basis(n, m))
    res = solve_equality_feasibility(*rational_lp(rows, rhs))
    assert res == expected
    check_result(rows, rhs, res)
    assert len(calls) == 1


def test_entries_beyond_float_range_fall_back_to_exact_loop(monkeypatch):
    big = F(10**400)
    rows = [[big, F(1), F(0)], [F(1), F(1), F(1)]]
    for rhs in ([big, F(1)], [-big, F(1)]):
        calls = spy_exact_loop(monkeypatch)
        res = solve_equality_feasibility(*rational_lp(rows, rhs))
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
        res = solve_equality_feasibility(*rational_lp(rows, rhs))
        check_result(rows, rhs, res)
        assert res.feasible == exact_loop(rows, rhs).feasible


def test_primal_infeasible_guide_basis_falls_back(monkeypatch):
    # -x_0 + x_1 = 1 is feasible; on the basis {x_0}, x_0 = -1 and the
    # dual y = 0 passes the column test but not y.b > 0.
    rows, rhs = [[F(-1), F(1)]], [F(1)]
    expected = exact_loop(rows, rhs)
    force_guide(monkeypatch)
    calls = spy_exact_loop(monkeypatch)
    monkeypatch.setattr(simplex, "_float_guide", lambda tab, n, m: ([0], 1))
    assert solve_equality_feasibility(*rational_lp(rows, rhs)) == expected
    assert expected.feasible and len(calls) == 1


@pytest.mark.parametrize("rows,rhs", FALLBACK_SYSTEMS)
def test_pivot_cap_falls_back_to_exact_loop(monkeypatch, rows, rhs):
    expected = exact_loop(rows, rhs)
    assert expected.pivots > 0
    force_guide(monkeypatch)
    calls = spy_exact_loop(monkeypatch)
    monkeypatch.setattr(simplex, "_PIVOT_CAP_PER_COLUMN", 0)
    assert solve_equality_feasibility(*rational_lp(rows, rhs)) == expected
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
    unforced = [decide(p) for p in problems]
    force_guide(monkeypatch)
    calls = spy_exact_loop(monkeypatch)
    monkeypatch.setattr(simplex, "_PIVOT_CAP_PER_COLUMN", 0)
    forced = [decide(p) for p in problems]
    assert len(calls) == len(problems)
    for a, b in zip(unforced, forced):
        assert (a.verdict, a.certificate, a.detail) == (b.verdict, b.certificate, b.detail)
        assert (a.witness and a.witness.mass) == (b.witness and b.witness.mass)


def equal_pair_moment_problem(n, pair):
    """+-1 variables with zero means and every pair moment equal to ``pair``.

    Feasible exactly when ``pair >= -1 / (n - 1)`` for even n and
    ``pair >= -1 / n`` for odd n, since an odd sum of +-1 values has a
    square of at least 1.
    """
    names = [f"X{i}" for i in range(n)]
    return MomentProblem(
        tuple(pm_one(v) for v in names),
        tuple(
            [MomentConstraint.of({v: 1}, 0) for v in names]
            + [MomentConstraint.of({a: 1, b: 1}, pair) for a, b in combinations(names, 2)]
        ),
    )


def equal_pair_moment_lp(n, pair):
    """The rational rows and right-hand side of ``equal_pair_moment_problem``."""
    matrix, den, rhs = feasibility._constraint_rows(equal_pair_moment_problem(n, pair))
    return fraction_rows(matrix, den), rhs


# Verdicts and pivot counts recorded from an exact Bland loop written
# independently of _integer_bland (a list-of-lists Fraction tableau);
# they pin the entering and leaving choices, tie-breaks included.
PINNED_BLAND_PATHS = [
    pytest.param(6, F(-1, 6), True, 76, id="n6-feasible"),
    pytest.param(6, F(-1, 4), False, 62, id="n6-infeasible"),
    pytest.param(7, F(-1, 8), True, 352, id="n7-feasible"),
    pytest.param(7, F(-1, 5), False, 122, id="n7-infeasible"),
]


@pytest.mark.parametrize("n,pair,feasible,pivots", PINNED_BLAND_PATHS)
def test_bland_path_is_pinned_on_equal_pair_moments(n, pair, feasible, pivots):
    # The exact loop on Python ints, the fallback that runs Bland's rule.
    rows, rhs = equal_pair_moment_lp(n, pair)
    res = exact_loop(rows, rhs)
    assert (res.feasible, res.pivots) == (feasible, pivots)
    check_result(rows, rhs, res)
    # The solver as it runs, by the guide's own pricing, agrees.
    solved = solve_equality_feasibility(*rational_lp(rows, rhs))
    assert solved.feasible == feasible
    check_result(rows, rhs, solved)


@pytest.mark.parametrize("pair,feasible", [(F(-1, 20), True), (F(-1, 8), False)])
def test_guide_decides_eleven_pm_one_pairs_without_fallback(monkeypatch, pair, feasible):
    # 2,048 atoms and 67 rows, over the int64 bound.  Bland's rule needs
    # tens of thousands of pivots here, or reaches the guide's pivot cap;
    # the guide's pricing takes about a hundred, and its basis certifies.
    problem = equal_pair_moment_problem(11, pair)
    guides = spy_guide(monkeypatch)
    calls = spy_exact_loop(monkeypatch)
    certified = []
    real = simplex._certify
    monkeypatch.setattr(simplex, "_certify", lambda *args: certified.append(real(*args)) or certified[-1])
    result = decide(problem)
    assert result.verdict == ("feasible" if feasible else "infeasible")
    assert len(guides) == 1 and calls == []
    assert len(certified) == 1 and certified[0].feasible == feasible
    assert certified[0].pivots == result.detail["pivots"] < 1000
    if feasible:
        check._checked_witness(problem, result.witness.mass)
    else:
        assert check.verify_certificate(problem, result.certificate)


def pm_one_cycle_problem(n, c):
    """+-1 variables with zero means and E[X_i X_(i+1 mod n)] = c: the chained Bell cycle."""
    names = [f"X{i}" for i in range(n)]
    return MomentProblem(
        tuple(pm_one(v) for v in names),
        tuple(
            [MomentConstraint.of({v: 1}, 0) for v in names]
            + [MomentConstraint.of({names[i]: 1, names[(i + 1) % n]: 1}, c) for i in range(n)]
        ),
    )


def test_guide_leaves_the_degenerate_vertex_of_the_sixteen_cycle(monkeypatch):
    # 65,536 atoms and 33 rows, over the int64 bound.  Dantzig's rule
    # alone takes 56 pivots; switching to Bland's rule after a run of 50
    # degenerate pivots took 842.
    guides = spy_guide(monkeypatch)
    calls = spy_exact_loop(monkeypatch)
    result = decide(pm_one_cycle_problem(16, F(-4, 5)))
    assert result.verdict == "feasible"
    assert len(guides) == 1 and calls == []
    assert result.detail["pivots"] <= 100


def certify_both_orders(matrix, den, rhs, basis, pivots):
    signs, b, scale = simplex._scales(den, rhs)
    return [
        simplex._certify(matrix, linalg.peak(matrix), signs, b, scale, basis, pivots, dual_first)
        for dual_first in (False, True)
    ]


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_certify_result_does_not_depend_on_check_order(system, data):
    # No basis passes both the primal and the Farkas check, so whichever
    # runs first, the result is the same: on the guide's basis and on
    # arbitrary (possibly singular or wrong) ones.
    rows, rhs = system
    matrix, den, signs, b, _ = integer_lp(rows, rhs)
    m, n = len(rows), len(rows[0])
    arbitrary = data.draw(st.lists(st.integers(0, n + m - 1), min_size=m, max_size=m))
    primal_first, dual_first = certify_both_orders(matrix, den, rhs, arbitrary, 0)
    assert primal_first == dual_first
    basis, pivots, _ = simplex._integer_bland(simplex._integer_tableau(matrix, signs, b, object), n, m)
    primal_first, dual_first = certify_both_orders(matrix, den, rhs, basis, pivots)
    assert primal_first == dual_first == exact_loop(rows, rhs)


@pytest.mark.parametrize("n,pair,feasible,pivots", PINNED_BLAND_PATHS)
def test_certify_order_is_free_on_pinned_moment_lps(monkeypatch, n, pair, feasible, pivots):
    rows, rhs = equal_pair_moment_lp(n, pair)
    matrix, _, den = rational_lp(rows, rhs)
    tab = simplex._tableau(matrix, linalg.peak(matrix), den, rhs, signs_of(rhs))
    guide = simplex._float_guide(tab, len(rows[0]), len(rows))
    # The guide's basis under its own pricing, then Bland's, whose path
    # (and pivot count) is pinned.
    results = []
    for basis in (guide, bland_basis(matrix, den, rhs)):
        primal_first, dual_first = certify_both_orders(matrix, den, rhs, *basis)
        assert primal_first == dual_first
        assert primal_first.feasible == feasible
        check_result(rows, rhs, primal_first)
        results.append(primal_first)
    assert results[1].pivots == pivots

    # The guide's objective points at the check that succeeds: one exact
    # solve per LP, infeasible ones included, lifted with no Bareiss
    # elimination.
    real_lift, real_echelon = simplex.lifted_solve, simplex.echelon
    solves, eliminations = [], []
    monkeypatch.setattr(simplex, "lifted_solve", lambda *a: solves.append(1) or real_lift(*a))
    monkeypatch.setattr(simplex, "echelon", lambda *a, **k: eliminations.append(1) or real_echelon(*a, **k))
    assert solve_equality_feasibility(*rational_lp(rows, rhs)) == results[0]
    assert len(solves) == 1 and eliminations == []


# ---------------------------------------------------------------------------
# The lifted certificate against Bareiss elimination
# ---------------------------------------------------------------------------


def whole_basis_bareiss(matrix, top, signs, b, scale, basis, pivots, dual_first):
    """``_certify`` as Bareiss elimination on the whole m x m basis block B.

    A reference written without the reduction to the structural block:
    ``B x = b`` and ``B^T w = c_B`` are each one ``echelon`` run.
    """
    m, n = matrix.shape
    columns = [
        [s * v for s, v in zip(signs, matrix[:, j].tolist())] if j < n else [int(i == j - n) for i in range(m)]
        for j in basis
    ]

    def solve(system):
        mat, piv, det = linalg.echelon(system, pivot_cols=m)
        if len(piv) != m:
            return None
        return [(1 if det > 0 else -1) * row[m] for row in mat], abs(det)

    def primal():
        solved = solve([[*row, bi] for row, bi in zip(zip(*columns), b)])
        return solved and simplex._solution(solved[0], basis, n, solved[1], scale, pivots)

    def dual():
        solved = solve([[*column, int(j >= n)] for column, j in zip(columns, basis)])
        if solved is None:
            return None
        w, d = solved
        structural = (np.array([-wi * s for wi, s in zip(w, signs)], object) @ matrix).tolist()
        cost = [*structural, *(d - wi for wi in w), -sum(wi * bi for wi, bi in zip(w, b))]
        return simplex._farkas(cost, n, d, signs, pivots)

    for check in (dual, primal) if dual_first else (primal, dual):
        result = check()
        if result is not None:
            return result
    return None


def certify_by_bareiss(*args):
    """``_certify`` with the lift reporting every block singular, so Bareiss solves it."""
    with patch.object(simplex, "lifted_solve", lambda square, rhs: None):
        return simplex._certify(*args)


def certify_lifted(*args):
    """``_certify`` as it runs, with every Bareiss elimination counted."""
    eliminations = []
    real = simplex.echelon
    with patch.object(simplex, "echelon", lambda *a, **k: eliminations.append(1) or real(*a, **k)):
        return simplex._certify(*args), len(eliminations)


def assert_lift_equals_bareiss(args):
    lifted, _ = certify_lifted(*args)
    assert lifted == certify_by_bareiss(*args) == whole_basis_bareiss(*args)
    return lifted


def certify_args(rows, rhs, basis, pivots, dual_first):
    matrix, den, signs, b, scale = integer_lp(rows, rhs)
    return matrix, linalg.peak(matrix), signs, b, scale, basis, pivots, dual_first


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_lifted_certificate_equals_bareiss_on_any_basis(system, data):
    # The guide's basis, the exact loop's final basis and an arbitrary one
    # (possibly singular, or repeating a column), in both check orders.
    rows, rhs = system
    m, n = len(rows), len(rows[0])
    matrix, den, signs, b, scale = integer_lp(rows, rhs)
    bases = [
        (data.draw(st.lists(st.integers(0, n + m - 1), min_size=m, max_size=m)), 0),
        simplex._integer_bland(simplex._integer_tableau(matrix, signs, b, object), n, m)[:2],
    ]
    guide = simplex._guided(matrix, linalg.peak(matrix), den, rhs, signs)
    if guide is not None:
        bases.append(guide[:2])
    for basis, pivots in bases:
        for dual_first in (False, True):
            assert_lift_equals_bareiss(certify_args(rows, rhs, basis, pivots, dual_first))


@pytest.mark.parametrize("n,pair,feasible,pivots", PINNED_BLAND_PATHS)
def test_lifted_certificate_equals_bareiss_on_pinned_moment_lps(n, pair, feasible, pivots):
    # The guide's basis and Bland's, each with the guide's check order.
    rows, rhs = equal_pair_moment_lp(n, pair)
    matrix, _, den = rational_lp(rows, rhs)
    *guide, dual_first = simplex._guided(matrix, linalg.peak(matrix), den, rhs, signs_of(rhs))
    for basis, count in (guide, bland_basis(matrix, den, rhs)):
        result = assert_lift_equals_bareiss(certify_args(rows, rhs, basis, count, dual_first))
        assert result.feasible == feasible


@pytest.mark.parametrize("n", [12, 13, 14])
@pytest.mark.parametrize("pair,feasible", [(F(-1, 20), True), (F(-1, 10), False)])
def test_lifted_certificate_equals_bareiss_on_large_pm_one_pairs(n, pair, feasible):
    # 4,096 to 16,384 atoms; ρ = -1/10 is infeasible at these n, as
    # -1/10 < -1/(n - 1).  The lift needs no Bareiss elimination.
    matrix, den, rhs = feasibility._constraint_rows(equal_pair_moment_problem(n, pair))
    signs, b, scale = simplex._scales(den, rhs)
    top = linalg.peak(matrix)
    args = (matrix, top, signs, b, scale, *simplex._guided(matrix, top, den, rhs, signs))
    lifted, eliminations = certify_lifted(*args)
    assert eliminations == 0 and lifted.feasible == feasible
    assert lifted == certify_by_bareiss(*args)


@pytest.mark.parametrize("dual_first", [False, True])
@pytest.mark.parametrize(
    "rows,rhs,basis",
    [
        # det = p: nonsingular over the rationals, singular modulo the prime
        ([[F(linalg.PRIME)]], [F(1)], [0]),
        ([[F(1), F(2)], [F(3), F(6 + linalg.PRIME)]], [F(3), F(9 + linalg.PRIME)], [0, 1]),
        ([[F(1), F(2)], [F(3), F(6 + linalg.PRIME)]], [F(1), F(1)], [0, 1]),  # proves nothing
        # a 1 x 1 block under one basic artificial: det = p again
        ([[F(1), F(2)], [F(2 * linalg.PRIME), F(linalg.PRIME)]], [F(2), F(linalg.PRIME)], [1, 2]),
    ],
)
def test_block_singular_modulo_the_prime_takes_the_bareiss_path(rows, rhs, basis, dual_first):
    args = certify_args(rows, rhs, basis, 0, dual_first)
    lifted, eliminations = certify_lifted(*args)
    assert eliminations >= 1
    assert lifted == whole_basis_bareiss(*args)
    if lifted is not None:
        assert lifted.feasible
        check_result(rows, rhs, lifted)


@pytest.mark.parametrize(
    "rows,rhs",
    [
        # entries past int64
        ([[F(2**70), F(1), F(0)], [F(1), F(1), F(1)]], [F(2**70), F(1)]),
        ([[F(2**70), F(1), F(0)], [F(1), F(1), F(1)]], [F(1), F(2)]),
        # over D = 2**70 * 3**45, rows scaled by 3**45 and 2**70: past int64
        ([[F(1, 2**70), F(1, 2**70), F(0)], [F(1, 3**45), F(0), F(1, 3**45)]], [F(1, 2**71), F(1, 3**46)]),
        ([[F(1, 2**70), F(-1, 2**70), F(0)], [F(1, 3**45), F(0), F(1, 3**45)]], [F(1, 2**71), F(-1, 3**46)]),
    ],
)
def test_wide_rows_and_factors_take_python_ints_and_agree(monkeypatch, rows, rhs):
    matrix, den, signs, b, scale = integer_lp(rows, rhs)
    products = []
    real = simplex.product
    monkeypatch.setattr(simplex, "product", lambda *a: products.append(real(*a)) or products[-1])
    m, n = len(rows), len(rows[0])
    final = simplex._integer_bland(simplex._integer_tableau(matrix, signs, b, object), n, m)
    for dual_first in (False, True):
        result = assert_lift_equals_bareiss(certify_args(rows, rhs, *final[:2], dual_first))
        assert result == exact_loop(rows, rhs)
    assert any(p.dtype == object for p in products)


def test_a_repeated_basis_column_proves_nothing():
    rows, rhs = [[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)]
    for basis in ([0, 0], [2, 2], [3, 3]):
        for dual_first in (False, True):
            args = certify_args(rows, rhs, basis, 0, dual_first)
            assert certify_lifted(*args)[0] is None
            assert whole_basis_bareiss(*args) is None


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[3, -7, 0], [0, 0, 0], [-(2**63), 1, 2**63 - 1]], np.int64),
        np.array([[2**64 - 1, 0], [5, 6]], np.uint64),
        np.array([[2**70, -(3**50)], [0, -1]], object),
        np.zeros((2, 0), np.int64),
    ],
    ids=["int64", "uint64", "python-ints", "no-columns"],
)
def test_row_peaks_are_each_rows_largest_magnitude(matrix):
    # One peak of the whole matrix bounds both the int64 tableau and the
    # certificate: the largest of the rows' largest magnitudes.
    top = linalg.peak(matrix)
    assert type(top) is int
    assert top == max((max(map(abs, row), default=0) for row in matrix.tolist()), default=0)


@pytest.mark.parametrize("dual_first", [False, True])
@pytest.mark.parametrize("b", [F(-1), F(1)])
def test_certify_block_of_the_int64_minimum_takes_python_ints(b, dual_first):
    # A sign of -1 turns -2**63 into 2**63, past int64: the block's dtype
    # follows peak(columns), not the matrix's dtype.
    matrix = np.array([[-(2**63), 1]], np.int64)
    signs = signs_of([b])
    _, rhs, scale = simplex._scales(1, [b])
    args = (matrix, linalg.peak(matrix), signs, rhs, scale, [0], 1, dual_first)
    lifted, _ = certify_lifted(*args)
    assert lifted == whole_basis_bareiss(*args)
    assert lifted is None or lifted.solution == {0: F(b, -(2**63))}


def test_the_dual_takes_no_second_peak_of_the_matrix(monkeypatch):
    # An infeasible guided LP reads its Farkas vector off the dual's cost
    # row; its int64 bound uses the peak taken once per solve.
    matrix, den, rhs = feasibility._constraint_rows(equal_pair_moment_problem(6, F(-1, 4)))
    force_guide(monkeypatch)
    calls = spy_exact_loop(monkeypatch)
    shapes = []
    real = linalg.peak
    monkeypatch.setattr(linalg, "peak", lambda a: shapes.append(a.shape) or real(a))
    res = solve_equality_feasibility(matrix, rhs, den)
    assert not res.feasible and calls == []
    check_result(fraction_rows(matrix, den), rhs, res)
    assert shapes and matrix.shape not in shapes


@pytest.mark.parametrize("pair,feasible", [(F(-1, 5), True), (F(-1, 4), False)])
def test_two_solves_of_one_read_only_matrix_take_its_peak_once(monkeypatch, pair, feasible):
    # The int64 bound, the float guide's quotients and the dual's cost row
    # all read the one peak kept for the matrix, however many targets it
    # is solved for.  Rows built afresh, so no earlier solve kept them.
    problem = equal_pair_moment_problem(6, pair)
    matrix, den = feasibility._build_rows(feasibility._row_structure(problem))
    rhs = [c.target for c in problem.constraints] + [F(1)]
    force_guide(monkeypatch)
    calls = spy_exact_loop(monkeypatch)
    shapes = []
    real = simplex.peak
    monkeypatch.setattr(simplex, "peak", lambda a: shapes.append(a.shape) or real(a))
    for _ in range(2):
        res = solve_equality_feasibility(matrix, rhs, den)
        assert res.feasible == feasible and calls == []
        check_result(fraction_rows(matrix, den), rhs, res)
    assert shapes.count(matrix.shape) == 1


@settings(max_examples=100, deadline=None)
@given(systems())
def test_exact_loop_holds_only_python_ints(system):
    rows, rhs = system
    m, n = len(rows), len(rows[0])
    matrix, den, signs, b, scale = integer_lp(rows, rhs)
    tab = simplex._integer_tableau(matrix, signs, b, object)
    assert all(type(v) is int for v in tab.flat)
    assert simplex._integer_bland(tab, n, m) is not None
    assert all(type(v) is int for v in tab.flat)


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
    """Integer rows with their denominator: cleared rational systems, or moment LPs."""
    if draw(st.booleans()):
        rows, rhs = draw(systems())
        rows = [[draw(st.one_of(st.just(v), wide)) for v in row] for row in rows]
        matrix, _, den = rational_lp(rows, rhs)
        return matrix, den, rhs
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
    matrix, den, rhs = lp
    signs = signs_of(rhs)
    rows = fraction_rows(matrix, den)
    tab = simplex._tableau(matrix, linalg.peak(matrix), den, rhs, signs)
    assert tab.tobytes() == fraction_filled_tableau(rows, rhs, signs).tobytes()


def test_float_tableau_uses_both_division_paths():
    # float64 division would misround the last two: an entry or a
    # denominator that is not an exact double.
    small = np.array([[5, -(2**52)], [1, 1]], np.int64)
    large = np.array([[5, 2**53 + 1], [1, 1]], np.int64)
    for matrix, den in ((small, 7), (large, 3), (small, 3**40)):
        rhs, signs = [F(1), F(1)], [1, 1]
        expected = fraction_filled_tableau(fraction_rows(matrix, den), rhs, signs)
        assert simplex._tableau(matrix, linalg.peak(matrix), den, rhs, signs).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# The exact loop's three paths: int64, float guide, Python ints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b", [F(0), F(1), F(-2, 3), F(10**40)])
def test_zero_column_systems(b):
    # No variable: feasible with x = () exactly when b = 0, else a Farkas
    # vector; 10**40 is over the int64 bound and goes to the float guide.
    for res in (
        solve_equality_feasibility(*rational_lp([[]], [b])),
        solve_equality_feasibility(np.zeros((1, 0), np.int64), [b], 1),
    ):
        if b == 0:
            assert res == simplex.EqualityFeasibility(True, {}, None, 0)
        else:
            assert not res.feasible and res.farkas[0] * b < 0


BAD_DENOMINATORS = [0, -1, True, 1.0, F(1), "1", np.int64(1), [1]]


@pytest.mark.parametrize("den", BAD_DENOMINATORS, ids=[f"dens{i}" for i in range(len(BAD_DENOMINATORS))])
def test_row_denominators_must_be_positive_ints(den):
    with pytest.raises(ValueError, match="positive int"):
        solve_equality_feasibility([[1]], [F(1)], den)


NOT_RATIONAL = [
    ([[0.5, 1.0]], [F(1)], 1),
    (np.array([[1 + 0j]]), [F(1)], 1),
    (np.array([[True, False]]), [F(1)], 1),
    (np.array([[1, 2.0]], object), [F(1)], 1),
    (np.array([[1, True]], object), [F(1)], 1),
    # Rows with no denominator are refused, rational or not.
    ([[0.5]], [F(1)], None),
    ([[F(1), True]], [F(1)], None),
    ([[F(1)]], [1.5], None),
    ([[1]], [1.5], 1),
    ([[F(1)]], [True], None),
]


@pytest.mark.parametrize(
    "rows,rhs,den",
    NOT_RATIONAL,
    ids=[f"rows{i}-rhs{i}-{'None' if den is None else f'dens{i}'}" for i, (_, _, den) in enumerate(NOT_RATIONAL)],
)
def test_inputs_that_are_not_rational_raise_value_error(rows, rhs, den):
    # Rejected up front, not by a TypeError or AttributeError deep in the solve.
    with pytest.raises(ValueError, match="int"):
        solve_equality_feasibility(rows, rhs, den)


def test_integer_rows_of_any_int_dtype_are_accepted(monkeypatch):
    # Unsigned rows that fit int64 take the int64 path, so they get the
    # int64 rows' result; Python-int rows go to the float guide, whose
    # result checks exactly and has the same verdict.
    expected = solve_equality_feasibility(np.array([[1, 2]], np.int64), [F(1, 2)], 3)
    guides = spy_guide(monkeypatch)
    for dtype in (np.uint8, np.uint64):
        assert solve_equality_feasibility(np.array([[1, 2]], dtype), [F(1, 2)], 3) == expected
    assert guides == []
    res = solve_equality_feasibility(np.array([[1, 2]], object), [F(1, 2)], 3)
    assert res.feasible and len(guides) == 1
    check_result([[F(1, 3), F(2, 3)]], [F(1, 2)], res)
    with pytest.raises(ValueError, match="must hold ints"):
        solve_equality_feasibility(np.array([[F(1, 3), 2]], object), [1], 3)


def check_paths_agree(rows, rhs):
    """Each path's result checks exactly; int64 and Python ints agree field for field.

    The float guide may stop early, and it may end on another optimal
    basis than the exact loop, with the same verdict.
    """
    exact = exact_loop(rows, rhs)
    check_result(rows, rhs, exact)
    matrix, den, signs, b, scale = integer_lp(rows, rhs)
    tab = int64_tableau(matrix, signs, b)
    if tab is not None:
        # The int64 loop visits the Python-int loop's tableaux cell for cell.
        reference = simplex._integer_tableau(matrix, signs, b, object)
        n, m = len(rows[0]), len(rows)
        assert tab.tolist() == reference.tolist()
        assert simplex._integer_bland(tab, n, m) == simplex._integer_bland(reference, n, m)
        assert tab.tolist() == reference.tolist()
        assert int64_path(rows, rhs) == exact
    guided = guided_path(rows, rhs)
    if guided is not None:
        check_result(rows, rhs, guided)
        assert guided.feasible == exact.feasible


@st.composite
def small_systems(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    rows = [draw(st.lists(st.one_of(st.just(F(0)), small), min_size=n, max_size=n)) for _ in range(m)]
    return rows, draw(st.lists(st.one_of(st.just(F(0)), small), min_size=m, max_size=m))


@settings(max_examples=300, deadline=None)
@given(systems())
def test_int64_guided_and_python_int_paths_agree(system):
    check_paths_agree(*system)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    small_systems(),
    st.integers(0, 2**32).map(
        lambda seed: (lambda lp: (fraction_rows(lp[0], lp[1]), lp[2]))(
            feasibility._constraint_rows(random_problem(random.Random(seed)))
        )
    ),
))
def test_all_three_paths_give_equal_results_on_small_entries(system):
    # On small entries the float guide settles every system, so the exact
    # loop, the int64 loop (where the bound lets it run) and the guide all
    # decide, with the same verdict.
    rows, rhs = system
    exact = exact_loop(rows, rhs)
    guided = guided_path(rows, rhs)
    assert guided is not None
    check_result(rows, rhs, guided)
    assert guided.feasible == exact.feasible
    check_paths_agree(rows, rhs)


@settings(max_examples=200, deadline=None)
@given(integer_lps())
def test_paths_agree_on_moment_lps(lp):
    matrix, den, rhs = lp
    check_paths_agree(fraction_rows(matrix, den), rhs)


def largest_under_bound(m):
    """The largest a for which a I x = (a, ..., a) has entry bound E < 2**31.

    Its column norms are a (m times), 1 (m times) and a sqrt(m) for the
    right-hand side, so E**2 = (m + 1)**2 * m * a**(2 m).
    """
    def under(a):
        return (m + 1) ** 2 * m * a ** (2 * m) < 2**62

    a = round((2**62 / ((m + 1) ** 2 * m)) ** (1 / (2 * m)))
    while not under(a):
        a -= 1
    while under(a + 1):
        a += 1
    return a


@pytest.mark.parametrize("m", [1, 2, 3])
def test_int64_bound_edge(monkeypatch, m):
    # Just under the bound the int64 loop decides alone; one step over,
    # the system goes to the float guide.  At m = 1, a + 1 = 2**30 puts
    # E exactly on 2**31, which must already count as over.
    a = largest_under_bound(m)
    assert m > 1 or a + 1 == 2**30
    for value, exact in ((a, True), (a + 1, False)):
        rows = [[F(value) if i == j else F(0) for j in range(m)] for i in range(m)]
        rhs = [F(value)] * m
        matrix, den, signs, b, scale = integer_lp(rows, rhs)
        assert (int64_tableau(matrix, signs, b) is not None) == exact
        guides = spy_guide(monkeypatch)
        res = solve_equality_feasibility(*rational_lp(rows, rhs))
        assert res == simplex.EqualityFeasibility(True, dict.fromkeys(range(m), F(1)), None, m)
        assert len(guides) == (0 if exact else 1)
        monkeypatch.undo()


@pytest.mark.parametrize("top, accepted", [(2**9, False), (2**9 - 1, True)])
def test_int64_bound_is_strict(top, accepted):
    # Squared column norms 2**20, 2**20 and top**2 (twice: the third
    # column and the right-hand side).  At top = 2**9, E**2 = 4**2 * 2**58
    # is exactly 2**62: E = 2**31 is already over, though every entry is
    # far below it.
    rows = [[F(2**10), F(0), F(0)], [F(0), F(2**10), F(0)], [F(0), F(0), F(top)]]
    rhs = [F(top), F(0), F(0)]
    matrix, den, signs, b, scale = integer_lp(rows, rhs)
    assert (int64_tableau(matrix, signs, b) is not None) == accepted
    check_result(rows, rhs, solve_equality_feasibility(*rational_lp(rows, rhs)))


def test_read_off_rejects_a_corrupted_final_tableau(monkeypatch):
    # Negating the right-hand side column makes x_B negative on a
    # feasible system and the objective negative on an infeasible one;
    # the read-off refuses both, and the float guide decides instead.
    real = simplex._integer_bland

    def corrupt(tab, n, m):
        final = real(tab, n, m)
        if tab.dtype != object:
            tab[:, -1] *= -1
        return final

    for rows, rhs in FALLBACK_SYSTEMS[:2]:
        expected = exact_loop(rows, rhs)
        monkeypatch.setattr(simplex, "_integer_bland", corrupt)
        guides = spy_guide(monkeypatch)
        assert solve_equality_feasibility(*rational_lp(rows, rhs)) == expected
        assert len(guides) == 1
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# The readers
# ---------------------------------------------------------------------------

INFEASIBLE_SYSTEMS = [
    FALLBACK_SYSTEMS[1],
    ([[F(1)]], [F(-1)]),
    ([[F(-3), F(-3), F(0)], [F(1), F(0), F(-1)], [F(2), F(0), F(-1)]], [F(-3), F(-2), F(0)]),
    ([[F(2), F(2)], [F(-3), F(3)], [F(-3), F(0)]], [F(2), F(2), F(-2)]),
]


def final_cost_row(rows, rhs):
    """``(cost, d, signs, pivots)`` of the exact loop's final tableau."""
    matrix, den, signs, b, scale = integer_lp(rows, rhs)
    tab = simplex._integer_tableau(matrix, signs, b, object)
    _, pivots, d = simplex._integer_bland(tab, len(rows[0]), len(rows))
    return tab[-1].tolist(), d, signs, pivots


@pytest.mark.parametrize("rows,rhs", INFEASIBLE_SYSTEMS)
def test_farkas_reader_needs_a_positive_objective_and_nonnegative_structural_costs(rows, rhs):
    n = len(rows[0])
    cost, d, signs, pivots = final_cost_row(rows, rhs)
    assert simplex._farkas(cost, n, d, signs, pivots) == exact_loop(rows, rhs)
    for objective in (0, 1):
        assert simplex._farkas([*cost[:-1], objective], n, d, signs, pivots) is None
    for j in range(n):
        assert simplex._farkas([*cost[:j], -1, *cost[j + 1 :]], n, d, signs, pivots) is None


@pytest.mark.parametrize("rows,rhs", INFEASIBLE_SYSTEMS)
def test_farkas_reader_accepts_negative_artificial_costs(rows, rhs):
    # The cost row of k w for k = d + 1: structural costs and the
    # objective keep their signs, and the artificial cost d - k w_i is
    # negative wherever w_i > 0 (somewhere, since the objective is
    # positive).  k u is still a Farkas vector.
    n = len(rows[0])
    cost, d, signs, pivots = final_cost_row(rows, rhs)
    k = d + 1
    scaled = [k * c for c in cost[:n]] + [d - k * (d - c) for c in cost[n:-1]] + [k * cost[-1]]
    assert min(scaled[n:-1]) < 0
    res = simplex._farkas(scaled, n, d, signs, pivots)
    check_farkas(rows, rhs, res.farkas)
    assert res.farkas == tuple(k * u for u in exact_loop(rows, rhs).farkas)


def test_solution_reader_needs_nonnegative_values_and_zero_basic_artificials():
    # Two structural columns, two rows; basis {x_1, artificial 0}, d = 2, L = 3.
    n, basis, d, scale = 2, [1, 2], 2, 3
    assert simplex._solution([12, 0], basis, n, d, scale, 5) == simplex.EqualityFeasibility(True, {1: F(2)}, None, 5)
    assert simplex._solution([-12, 0], basis, n, d, scale, 5) is None
    assert simplex._solution([12, 1], basis, n, d, scale, 5) is None
    assert simplex._solution([12, -1], basis, n, d, scale, 5) is None


# ---------------------------------------------------------------------------
# Per-matrix templates
# ---------------------------------------------------------------------------


def reference_int64_tableau(matrix, top, signs, b):
    """The int64 tableau as the solve admitted it when it built one per call, or None.

    The whole tableau is filled first and its column norms taken from
    it; ``top`` is ``peak(matrix)``.
    """
    m = len(matrix)
    if matrix.dtype.kind != "i":
        return None
    if (m + 1) * max(top, *map(abs, b)) >= simplex._INT64_SAFE:
        return None
    tab = simplex._integer_tableau(matrix, signs, b, np.int64)
    squares = np.einsum("ij,ij->j", tab[:m], tab[:m])
    if (m + 1) ** 2 * prod(np.sort(squares)[-m:].tolist()) >= simplex._INT64_SAFE**2:
        return None
    return tab


@st.composite
def template_cases(draw):
    """A signed, unsigned or Python-int matrix, a denominator and two mixed-sign targets.

    Entry and target sizes are drawn per case, so the bound E < 2**31
    both holds and fails.
    """
    m, n = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["int64", "uint64", "object"]))
    bits = draw(st.integers(0, 34))
    if kind == "uint64":
        top = draw(st.sampled_from([2**bits, 2**64 - 1]))
        entries = st.integers(0, top)
    elif kind == "object":
        entries = st.integers(-(2 ** (bits + 40)), 2 ** (bits + 40))
    else:
        entries = st.integers(-(2**bits), 2**bits)
    matrix = np.array([[draw(entries) for _ in range(n)] for _ in range(m)], kind if kind != "int64" else np.int64)
    matrix = matrix.reshape(m, n)
    size = 2 ** draw(st.integers(0, 34))
    target = st.builds(F, st.integers(-size, size), st.integers(1, 6))
    rhs = [draw(st.lists(target, min_size=m, max_size=m)) for _ in range(2)]
    return matrix, draw(st.integers(1, 6)), rhs


@settings(max_examples=400, deadline=None)
@given(template_cases())
def test_template_admits_and_fills_as_the_per_call_tableau(case):
    # One template serves both targets: its block is built for the first
    # one admitted and copied for each, so the second sees it unchanged.
    matrix, den, targets = case
    template = simplex._Template(matrix)
    old = matrix
    if matrix.dtype.kind == "u" and matrix.max(initial=0) < 2**63:
        old = matrix.astype(np.int64)
    rows = matrix if template.rows is None else template.rows
    assert rows.dtype == old.dtype and rows.tolist() == old.tolist()
    assert template.top == linalg.peak(old)
    for rhs in targets:
        signs, b, scale = simplex._scales(den, rhs)
        assert signs == signs_of(rhs)
        assert scale == lcm(*[v.denominator for v in rhs])
        assert b == [s * v.numerator * (scale * den // v.denominator) for s, v in zip(signs, rhs)]
        expected = reference_int64_tableau(old, linalg.peak(old), signs, b)
        got = template.tableau(rows, signs, b)
        if expected is None:
            assert got is None
        else:
            assert got.dtype == np.int64 and got.tolist() == expected.tolist()


@pytest.mark.parametrize("a", [2**30, 3 * 10**9])
@pytest.mark.parametrize("rhs", [[F(1)], [F(-1, 2)]])
def test_a_small_target_does_not_hide_rows_over_the_bound(a, rhs):
    # E = 2 a >= 2**31 from the rows alone.  The b column's norm replaces
    # the smallest kept one only when it is larger, so a small target
    # leaves the rows' product, and the bound, as they are.
    matrix = np.array([[a]], np.int64)
    signs, b, _ = simplex._scales(1, rhs)
    assert reference_int64_tableau(matrix, linalg.peak(matrix), signs, b) is None
    assert int64_tableau(matrix, signs, b) is None


def read_only(matrix):
    matrix.setflags(write=False)
    return matrix


def test_only_read_only_rows_that_own_their_data_are_kept(monkeypatch):
    monkeypatch.setattr(simplex, "_templates", {})
    writable = np.array([[1, 2], [3, 4]], np.int64)
    view = writable.view()
    view.setflags(write=False)  # read-only, but it changes with writable
    for rows in (writable, view):
        solve_equality_feasibility(rows, [F(1), F(2)], 1)
    assert simplex._templates == {}
    # A writable matrix changed between two solves is read afresh.
    writable[0, 0] = -1
    assert solve_equality_feasibility(view, [F(1), F(2)], 1) == solve_equality_feasibility(
        np.array([[-1, 2], [3, 4]]), [F(1), F(2)], 1
    )
    owned = read_only(np.array([[1, 2], [3, 4]], np.int64))
    solve_equality_feasibility(owned, [F(1), F(2)], 1)
    assert list(simplex._templates) == [id(owned)]


def test_a_kept_template_goes_with_its_matrix(monkeypatch):
    monkeypatch.setattr(simplex, "_templates", {})
    matrix = read_only(np.array([[1, 2], [3, 4]], np.int64))
    solve_equality_feasibility(matrix, [F(1), F(2)], 1)
    key = id(matrix)
    assert key in simplex._templates
    del matrix
    gc.collect()
    assert simplex._templates == {}


def test_the_row_cache_sets_the_lifetime_of_its_templates(monkeypatch):
    monkeypatch.setattr(simplex, "_templates", {})
    monkeypatch.setattr(feasibility, "_cached_rows", feasibility._RowCache())
    problem = equal_pair_moment_problem(4, F(-1, 5))
    decide(problem)
    (matrix, _), = feasibility._cached_rows.kept.values()
    assert list(simplex._templates) == [id(matrix)]
    del matrix
    feasibility._cached_rows.clear()
    gc.collect()
    assert simplex._templates == {}


def spy_block(monkeypatch):
    """Record the shape of each int64 block built."""
    shapes = []
    real = simplex._block
    monkeypatch.setattr(simplex, "_block", lambda matrix: shapes.append(matrix.shape) or real(matrix))
    return shapes


def test_one_block_serves_every_target_of_a_read_only_matrix(monkeypatch):
    problem = equal_pair_moment_problem(4, F(-1, 5))
    matrix, den = feasibility._build_rows(feasibility._row_structure(problem))
    blocks = spy_block(monkeypatch)
    guides = spy_guide(monkeypatch)
    for pair in (F(-1, 5), F(-1, 2), F(1, 3)):
        rhs = [F(0)] * 4 + [pair] * 6 + [F(1)]
        expected = exact_loop(fraction_rows(matrix, den), rhs)
        assert solve_equality_feasibility(matrix, rhs, den) == expected
    assert blocks == [matrix.shape] and guides == []


@pytest.mark.parametrize("n,pair,feasible", [(5, F(-1, 5), True), (6, F(-1, 4), False)])
def test_a_guided_system_allocates_no_int64_tableau(monkeypatch, n, pair, feasible):
    # Over the bound, the solve decides that from the kept norms and the
    # target's column alone: no int64 block or tableau is built.
    matrix, den, rhs = feasibility._constraint_rows(equal_pair_moment_problem(n, pair))
    blocks = spy_block(monkeypatch)
    tableaux = []
    real = simplex._integer_tableau
    monkeypatch.setattr(simplex, "_integer_tableau", lambda *a: tableaux.append(a[-1]) or real(*a))
    guides = spy_guide(monkeypatch)
    res = solve_equality_feasibility(matrix, rhs, den)
    assert res.feasible == feasible
    assert len(guides) == 1 and blocks == [] and tableaux == []
