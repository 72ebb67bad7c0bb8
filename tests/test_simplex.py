import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_problem
from jointfeas import MomentConstraint, MomentProblem, decide, feasibility, pm_one, simplex
from jointfeas.simplex import solve_equality_feasibility

F = Fraction


def check_farkas(rows, rhs, farkas):
    n = len(rows[0])
    for j in range(n):
        assert sum(farkas[i] * rows[i][j] for i in range(len(rows))) >= 0
    assert sum(farkas[i] * rhs[i] for i in range(len(rows))) < 0


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
    return simplex._exact_bland(rows, rhs, [(-1 if b < 0 else 1) for b in rhs])


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
    lps = []
    for _ in range(150):
        problem = random_problem(rng)
        atoms = list(problem.atom_space())
        lps.append(feasibility._constraint_rows(problem, atoms, with_slacks=True))
    expected = [exact_loop(rows, rhs) for rows, rhs in lps]
    calls = spy_exact_loop(monkeypatch)
    assert [solve_equality_feasibility(rows, rhs) for rows, rhs in lps] == expected
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
