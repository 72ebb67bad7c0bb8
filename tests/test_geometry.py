import random
from fractions import Fraction
from itertools import combinations, product
from math import e, gcd, lcm, pi, sqrt
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jointfeas import feasibility, geometry, linalg, simplex
from jointfeas.corpus import load_cases
from jointfeas.errors import SizeCapError
from jointfeas.files import parse_problem
from jointfeas.geometry import _extreme_rays_pointed, cone_membership, dual_rays
from jointfeas.simplex import solve_equality_feasibility

from conftest import random_problem, rational_lp

F = Fraction


def vec(*xs):
    return tuple(F(x) for x in xs)


def test_nullspace_basic():
    basis = linalg.nullspace([(1, 1, 0)])
    assert len(basis) == 2
    for b in basis:
        assert b[0] + b[1] == 0 or b[2] != 0


def test_membership_in_square_cone():
    # generators of the homogenized unit square: (1, corner)
    corners = [(1, x, y) for x in (0, 1) for y in (0, 1)]
    inside = vec(1, F(1, 3), F(2, 3))
    res = cone_membership(corners, inside)
    assert res.member
    total = [F(0)] * 3
    for idx, w in res.combination.items():
        assert w >= 0
        total = [t + w * g for t, g in zip(total, corners[idx])]
    assert tuple(total) == inside

    outside = vec(1, 2, F(1, 2))
    res = cone_membership(corners, outside)
    assert not res.member
    sep = res.separator
    for g in corners:
        assert sum(a * b for a, b in zip(sep, g)) >= 0
    assert sum(a * b for a, b in zip(sep, outside)) < 0


def test_membership_boundary_point():
    corners = [(1, 0), (1, 1)]
    res = cone_membership(corners, vec(1, 1))  # a vertex itself
    assert res.member
    res = cone_membership(corners, vec(1, F(1, 2)))
    assert res.member
    res = cone_membership(corners, vec(1, F(3, 2)))
    assert not res.member


def test_membership_off_span():
    gens = [(1, 1, 0), (1, -1, 0)]
    res = cone_membership(gens, (1, 0, 1))  # last coordinate unreachable
    assert not res.member
    sep = res.separator
    assert all(sum(a * b for a, b in zip(sep, g)) == 0 for g in gens)


def test_dual_rays_of_orthant():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    lineality, rays = dual_rays(gens)
    assert not lineality
    assert sorted(rays) == sorted(gens)


@pytest.mark.parametrize("gens", [[(1, 0, 0), (0, 1, 0), (1, 1, 1)], [(1, 1, 0), (1, -1, 0)], [(2, 2, 0)]])
def test_dual_rays_hands_out_fresh_lists(gens):
    # The description is cached per generator tuple; a caller that edits
    # what it got must not change what the next caller gets.
    expected = tuple(list(part) for part in dual_rays(gens))
    lineality, rays = dual_rays([list(g) for g in gens])
    assert (lineality, rays) == expected
    lineality.append((7, 7, 7))
    rays.append((9, 9, 9))
    rays.reverse()
    lineality.clear()
    assert dual_rays(gens) == expected
    assert dual_rays(gens)[1] is not dual_rays(gens)[1]


def test_randomized_membership_matches_direct_check(rng=None):
    rng = rng or random.Random(7)
    for _ in range(40):
        dim = rng.randint(2, 4)
        points = [
            vec(1, *[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim - 1)])
            for _ in range(rng.randint(2, 7))
        ]
        # random convex combination is always a member
        weights = [rng.randint(0, 4) for _ in points]
        if sum(weights) == 0:
            weights[0] = 1
        s = sum(weights)
        target = tuple(
            sum(F(w, s) * p[k] for w, p in zip(weights, points)) for k in range(dim)
        )
        # The generators are positive integer multiples of the points.
        gens = [tuple(linalg.integral(p)) for p in points]
        res = cone_membership(gens, target)
        assert res.member
        recombined = [F(0)] * dim
        for idx, w in res.combination.items():
            recombined = [t + w * g for t, g in zip(recombined, gens[idx])]
        assert tuple(recombined) == target


# ---------------------------------------------------------------------------
# Fraction-free kernel and integer double description against definitions
# ---------------------------------------------------------------------------


def ref_rref(rows):
    """Textbook reduced row echelon form over Fraction: (rows, pivot columns)."""
    mat = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[: len(pivots)], pivots


def ref_rank(rows):
    return len(ref_rref(rows)[1]) if rows else 0


def ref_nullspace(rows, ncols):
    """Rational basis of {x : rows . x = 0}."""
    if not rows:
        return [tuple(F(int(i == j)) for j in range(ncols)) for i in range(ncols)]
    mat, pivots = ref_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def as_primitive(vec):
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F(0))


def ref_dual_rays(gens, dim):
    """Extreme rays of {u in span(gens) : u.g >= 0}, by brute force.

    A ray of the dual cone inside the span is fixed by rank - 1 tight
    generators: it spans the nullspace of those generators together
    with the lineality space (the span's orthogonal complement).
    """
    rank = ref_rank(gens)
    lineality = ref_nullspace(gens, dim)
    rays = set()
    for subset in combinations(gens, rank - 1):
        null = ref_nullspace(list(subset) + lineality, dim)
        if len(null) != 1:
            continue
        for u in (null[0], [-x for x in null[0]]):
            if all(dot(u, g) >= 0 for g in gens):
                rays.add(as_primitive(u))
    return rays


int_matrix = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=1, max_size=6
    )
)

generator_sets = st.integers(1, 4).flatmap(
    lambda dim: st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple),
        min_size=1,
        max_size=8,
    )
)


@settings(max_examples=150, deadline=None)
@given(int_matrix)
def test_echelon_is_a_multiple_of_the_reduced_form(rows):
    mat, pivots, d = linalg.echelon(rows)
    ref, ref_pivots = ref_rref(rows)
    assert pivots == ref_pivots
    assert [[F(x, d) for x in row] for row in mat[: len(pivots)]] == ref
    assert all(not any(row) for row in mat[len(pivots):])


@settings(max_examples=150, deadline=None)
@given(int_matrix)
def test_rank_and_independent_rows_match_definition(rows):
    chosen = linalg.independent_rows(rows)
    assert len(chosen) == ref_rank(rows)
    # greedy from the front: row i is chosen iff it raises the rank of rows[:i]
    for i in range(len(rows)):
        raises = ref_rank(rows[: i + 1]) > ref_rank(rows[:i])
        assert (i in chosen) == raises


@settings(max_examples=150, deadline=None)
@given(int_matrix)
def test_nullspace_matches_definition(rows):
    ncols = len(rows[0])
    basis = linalg.nullspace(rows)
    assert len(basis) == ncols - ref_rank(rows)
    if basis:
        assert ref_rank(basis) == len(basis)
    for v in basis:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
        assert gcd(*v) == 1


@settings(max_examples=150, deadline=None)
@given(int_matrix, st.data())
def test_solve_and_inverse_match_definition(rows, data):
    ncols = len(rows[0])
    rhs = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    fractional = [F(b, 3) for b in rhs]
    x, y = linalg.solve(rows, [rhs, fractional])
    solvable = ref_rank(rows) == ref_rank([row + [b] for row, b in zip(rows, rhs)])
    assert (x is not None) == solvable
    for sol, b in ((x, rhs), (y, fractional)):
        if sol is not None:
            assert len(sol) == ncols
            assert [dot(row, sol) for row in rows] == list(b)
    square = [row[: len(rows)] for row in rows] if ncols >= len(rows) else None
    if square and ref_rank(square) == len(square):
        adj, d = linalg.inverse(square)
        n = len(square)
        product = [[sum(square[i][k] * adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert product == [[d * int(i == j) for j in range(n)] for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(int_matrix, st.data())
def test_pivot_agrees_on_int64_and_python_ints(rows, data):
    small, big = np.array(rows, np.int64), np.array(rows, object)
    d_small = d_big = 1
    free_rows, free_cols = set(range(len(rows))), set(range(len(rows[0])))
    # Bareiss order: each pivot in a row and a column not pivoted before
    while True:
        choices = sorted((r, c) for r in free_rows for c in free_cols if small[r, c])
        if not choices:
            break
        r, c = data.draw(st.sampled_from(choices))
        d_small, d_big = linalg.pivot(small, r, c, d_small), linalg.pivot(big, r, c, d_big)
        assert type(d_small) is int and type(d_big) is int
        assert d_small == d_big
        assert small.tolist() == big.tolist()
        free_rows.discard(r)
        free_cols.discard(c)


wide_entry = st.one_of(
    st.integers(-4, 4),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**62, -(2**62), 2**63 - 1, -(2**63), 2**64, linalg.PRIME]),
)
square_systems = st.integers(1, 6).flatmap(
    lambda k: st.tuples(
        st.lists(st.lists(wide_entry, min_size=k, max_size=k), min_size=k, max_size=k),
        st.lists(wide_entry, min_size=k, max_size=k),
    )
)


@settings(max_examples=200, deadline=None)
@given(square_systems, st.booleans())
def test_lifted_solve_equals_solve(system, python_ints):
    rows, rhs = system
    k = len(rows)
    flat = [v for row in rows for v in row]
    square = (np.array(flat, object) if python_ints else linalg.integers(flat)).reshape(k, k)
    got = linalg.lifted_solve(square, rhs)
    _, pivots, det = linalg.echelon(rows)
    if len(pivots) < k:
        assert got is None
    else:  # singular modulo the prime or not, the solve settles it
        num, q = got
        assert q > 0 and all(type(v) is int for v in [*num, q])
        assert [F(v, q) for v in num] == linalg.solve(rows, [rhs])[0]


@pytest.mark.parametrize("digits", [1, 30, 300, 3000])
@pytest.mark.parametrize("python_ints", [False, True])
def test_lifting_reads_back_at_most_log2_steps_plus_two_times(monkeypatch, digits, python_ints):
    # x = (q2, -1) / (q1 q2 - 1): numerators as long as q and a
    # denominator twice as long, so the lifting takes about 0.4 steps per
    # digit and only the final reading succeeds.  Reading back after
    # every step made 3,000 digits take seconds.
    q1, q2 = 10**digits + 7, 10**digits + 3 * 10 ** (digits // 2) + 1
    rows, rhs = [[q1, 1], [1, q2]], [1, 0]
    steps, readings = [], []
    real_step, real_read = linalg._mod_product, linalg._reconstruct
    monkeypatch.setattr(linalg, "_mod_product", lambda *a: steps.append(1) or real_step(*a))
    monkeypatch.setattr(linalg, "_reconstruct", lambda *a: readings.append(1) or real_read(*a))
    flat = [v for row in rows for v in row]
    square = (np.array(flat, object) if python_ints else linalg.integers(flat)).reshape(2, 2)
    num, q = linalg.lifted_solve(square, rhs)
    assert [F(v, q) for v in num] == [F(q2, q1 * q2 - 1), F(-1, q1 * q2 - 1)]
    assert 1 <= len(readings) <= len(steps).bit_length() + 1  # floor(log2(steps)) + 2


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2], [2, 4]],
        [[0, 0], [3, 1]],
        [[2**70, 1, 0], [1, 2**70, 0], [2**70 + 1, 2**70 + 1, 0]],
    ],
)
def test_lifted_solve_is_none_on_singular_blocks(rows):
    assert linalg.lifted_solve(np.array(rows, object), [1] * len(rows)) is None


def test_lifted_solve_settles_a_block_singular_modulo_the_prime():
    # Nonsingular over the rationals, singular modulo the prime: Bareiss
    # elimination solves it, and the result is (|det| x, |det|).
    p = linalg.PRIME
    assert linalg.lifted_solve(np.array([[p, 0], [0, 1]], object), [1, 1]) == ([1, p], p)


def test_lifted_solve_ends_in_bareiss_when_no_reading_checks(monkeypatch):
    # Reconstruction within the Hadamard bounds cannot fail; were a fault
    # to leave every reading unchecked, the solve still ends exact.
    monkeypatch.setattr(linalg, "_reconstruct", lambda *a: None)
    assert linalg.lifted_solve(np.array([[2, 1], [1, 3]], object), [1, 0]) == ([3, -1], 5)


small_rationals = st.integers(1, 2**10).flatmap(
    lambda d: st.lists(st.integers(-(2**8) * d, 2**8 * d).map(lambda p: F(p, d)), max_size=8)
)


@settings(max_examples=300, deadline=None)
@given(small_rationals)
def test_rationalize_reads_small_rationals_back_from_their_floats(values):
    # Over one denominator d <= 2**10 and at most 2**8 in size, a false
    # convergent s / t would need 1 / d below 2**-30 * t * |q v|.
    num, q = linalg.rationalize([float(v) for v in values])
    assert q > 0 and all(type(v) is int for v in [*num, q])
    assert [F(v, q) for v in num] == values


@pytest.mark.parametrize(
    "values",
    [
        [float("nan")],
        [0.5, float("inf")],
        [-float("inf")],
        [1 / 3, 1e308],  # finite, but 3 * 1e308 overflows
        # each needs a denominator near 2**15, and each q v stays below 1
        [pi / 10, e * 1e-6, sqrt(2) * 1e-11, sqrt(3) * 1e-16, sqrt(5) * 1e-21],
    ],
    ids=["nan", "inf", "minus-inf", "near-overflow", "past-2**53"],
)
def test_rationalize_gives_up_on_floats_that_pin_no_rational(values):
    assert linalg.rationalize(values) is None


@settings(max_examples=150, deadline=None)
@given(int_matrix, st.data())
def test_product_is_exact_on_both_sides_of_the_int64_bound(rows, data):
    scale = data.draw(st.sampled_from([1, 2**30, 2**61, 2**63]))
    a = np.array([[v * scale for v in row] for row in rows], object)
    vector = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows[0]), max_size=len(rows[0])))
    got = linalg.product(a, linalg.integers(vector))
    assert got.tolist() == [dot(row, vector) for row in a.tolist()]
    bound = max(linalg.peak(a), 1) * max(*map(abs, vector), 1) * len(vector)
    assert (got.dtype == np.int64) == (bound <= 2**63 - 1)


@settings(max_examples=150, deadline=None)
@given(int_matrix, st.data(), st.booleans())
def test_exact_simplex_loop_updates_only_through_pivot(rows, data, python_ints):
    # the Python-int loop runs when the int64 bound fails and the guide proposes nothing
    rhs = data.draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    calls = []

    def counted(*args):
        calls.append(args)
        return linalg.pivot(*args)

    with (
        patch.object(simplex, "pivot", counted),
        patch.object(simplex, "_guided", lambda *a: None),
        patch.object(simplex, "_INT64_SAFE", 0 if python_ints else simplex._INT64_SAFE),
    ):
        result = solve_equality_feasibility(*rational_lp(rows, rhs))
    assert len(calls) == result.pivots
    assert all(args[0].dtype == (object if python_ints else np.int64) for args in calls)


def test_double_description_stops_past_its_ray_budget(monkeypatch):
    # The cone over a cube: its dual is the cone over an octahedron, 6
    # rays, and the double description holds 7 on the way.
    cube = [(1, *signs) for signs in product((-1, 1), repeat=3)]
    monkeypatch.setattr(geometry, "RAY_BUDGET", 7)
    assert len(_extreme_rays_pointed(cube)) == 6
    monkeypatch.setattr(geometry, "RAY_BUDGET", 6)
    with pytest.raises(SizeCapError, match="more than 6 rays"):
        _extreme_rays_pointed(cube)


@settings(max_examples=150, deadline=None)
@given(generator_sets)
def test_dual_rays_match_brute_force_reference(gens):
    dim = len(gens[0])
    lineality, rays = dual_rays(gens)
    assert len(set(rays)) == len(rays)
    if ref_rank(gens) == 0:
        assert rays == []
        return
    assert set(rays) == ref_dual_rays(gens, dim)
    assert len(lineality) == dim - ref_rank(gens)
    assert all(dot(line, g) == 0 for line in lineality for g in gens)


halfspace_sets = st.integers(3, 5).flatmap(
    lambda dim: st.lists(
        st.tuples(st.just(1), *[st.integers(-1, 1)] * (dim - 1))
        | st.tuples(*[st.integers(-2, 2)] * dim),
        min_size=dim,
        max_size=dim + 4,
    )
)


@settings(max_examples=150, deadline=None)
@given(halfspace_sets)
def test_double_description_on_degenerate_cones(halfspaces):
    # 0/+-1 normals put many normals through each ray, where the
    # combinatorial adjacency test, not the bit-count prefilter, decides.
    dim = len(halfspaces[0])
    if ref_rank(halfspaces) < dim:
        return
    rays = _extreme_rays_pointed(halfspaces)
    assert len(set(rays)) == len(rays)
    assert set(rays) == ref_dual_rays(halfspaces, dim)


def test_public_functions_return_primitive_integer_tuples():
    def is_primitive_int_tuple(v):
        return isinstance(v, tuple) and all(type(x) is int for x in v) and gcd(*v) == 1

    # Non-primitive generators: (2, 1, 0) and (3, 0, 2) are 2 and 3 times
    # (1, 1/2, 0) and (1, 0, 2/3).
    gens = [(1, 0, 0), (2, 1, 0), (3, 0, 2)]
    lineality, rays = dual_rays(gens + [(0, 0, 0)])
    assert rays and all(is_primitive_int_tuple(r) for r in rays)
    lineality, _ = dual_rays([(2, 2, 0)])
    assert lineality and all(is_primitive_int_tuple(v) for v in lineality)
    outside = cone_membership(gens, (1, -1, 0))
    assert not outside.member and is_primitive_int_tuple(outside.separator)
    off_span = cone_membership([(2, 2, 0)], (1, 0, 0))
    assert not off_span.member and is_primitive_int_tuple(off_span.separator)
    inside = cone_membership(gens, vec(1, F(1, 8), F(1, 9)))
    assert inside.member
    assert all(type(w) is F and w > 0 for w in inside.combination.values())
    check_combination(gens, vec(1, F(1, 8), F(1, 9)), inside.combination)


# ---------------------------------------------------------------------------
# Cone oracle: one double description per call, face descent on its rays
# ---------------------------------------------------------------------------


def int_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def lifted_dual_rays(generators):
    """Reference: the double description in coordinates of the generators'
    span, lifted back, for every generator set (full rank included)."""
    gens = [linalg.primitive(g) for g in generators]
    lineality = linalg.nullspace(gens)
    basis = [gens[i] for i in linalg.independent_rows(gens)]
    if not basis:
        return lineality, []
    reduced = [tuple(int_dot(b, g) for b in basis) for g in gens]
    columns = list(zip(*basis))
    rays = [linalg.primitive([int_dot(z, col) for col in columns]) for z in _extreme_rays_pointed(reduced)]
    return lineality, rays


@st.composite
def pointed_cones(draw):
    """Integer generators in dimension 2-5 of a pointed cone, of any rank.

    Each generator is M.(1, y) scaled by a positive integer, for a fixed
    integer map M whose first row is (1, 0, ..., 0): the first
    coordinate is positive on every generator, so the cone is pointed.
    Its rank is that of M, from 1 to the dimension.
    """
    dim = draw(st.integers(2, 5))
    rank = draw(st.integers(1, dim))
    tail = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
            min_size=dim - 1,
            max_size=dim - 1,
        )
    )
    lift = [[1] + [0] * (rank - 1)] + tail
    coordinates = st.lists(st.integers(-3, 3), min_size=rank - 1, max_size=rank - 1)
    points = draw(st.lists(st.tuples(st.integers(1, 3), coordinates), min_size=1, max_size=8))
    return [tuple(scale * int_dot(row, (1, *y)) for row in lift) for scale, y in points]


def counted_membership(gens, target):
    """cone_membership, with the dual_rays calls it makes counted."""
    calls = []

    def counting(generators):
        calls.append(1)
        return real(generators)

    real = geometry.dual_rays
    with patch.object(geometry, "dual_rays", counting):
        res = cone_membership(gens, target)
    assert len(calls) == 1
    return res


def check_combination(gens, target, combination):
    """Positive weights that recombine the target exactly."""
    assert all(w > 0 for w in combination.values())
    recombined = tuple(
        sum((w * gens[i][k] for i, w in combination.items()), F(0)) for k in range(len(target))
    )
    assert recombined == target


@settings(max_examples=200, deadline=None)
@given(pointed_cones(), st.data())
def test_members_are_recombined_exactly_from_at_most_dim_generators(gens, data):
    dim = len(gens[0])
    weights = data.draw(
        st.lists(st.fractions(0, 5, max_denominator=7), min_size=len(gens), max_size=len(gens))
    )
    target = tuple(sum((w * g[k] for w, g in zip(weights, gens)), F(0)) for k in range(dim))
    res = counted_membership(gens, target)
    assert res.member and res.separator is None
    check_combination(gens, target, res.combination)
    assert len(res.combination) <= dim


@settings(max_examples=200, deadline=None)
@given(pointed_cones(), st.data())
def test_membership_verdict_matches_the_simplex(gens, data):
    dim = len(gens[0])
    target = tuple(
        F(x) for x in data.draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    )
    res = counted_membership(gens, target)
    columns = [[g[k] for g in gens] for k in range(dim)]
    assert res.member == solve_equality_feasibility(*rational_lp(columns, list(target))).feasible
    if res.member:
        check_combination(gens, target, res.combination)
    else:
        sep = res.separator
        assert all(dot(sep, g) >= 0 for g in gens)
        assert dot(sep, target) < 0


@settings(max_examples=150, deadline=None)
@given(generator_sets)
def test_full_rank_dual_rays_skip_the_lift_and_keep_their_order(gens):
    dim = len(gens[0])
    assume(ref_rank(gens) == dim)
    assert dual_rays(gens) == ([], lifted_dual_rays(gens)[1])


def test_corpus_oracle_dual_rays_equal_the_lifted_path(monkeypatch):
    seen = []
    real = geometry.dual_rays

    def grab(generators):
        seen.append(generators)
        return real(generators)

    monkeypatch.setattr(geometry, "dual_rays", grab)
    for case in load_cases():
        if case["kind"] == "decide" and "oracle_agrees" in case["expected"]:
            feasibility.brute_force_oracle(parse_problem(case["problem"])["problem"])
    assert len(seen) >= 3
    for gens in seen:
        assert dual_rays(gens) == lifted_dual_rays(gens)


def test_face_descent_answers_a_cone_with_a_line():
    # cone((1), (-1)) is the whole line: its dual is {0}, no ray to descend on.
    res = cone_membership([(1,), (-1,)], (-1,))
    assert res.member
    check_combination([(1,), (-1,)], (-1,), res.combination)
    # The upper half plane holds the line through (1, 0); (0, 1) is a member
    # and (0, -1) is not.
    gens = [(1, 0), (-1, 0), (0, 1)]
    for target in [(0, 1), (5, 2), (-5, 2), (-3, 0)]:
        res = cone_membership(gens, target)
        assert res.member and res.separator is None
        check_combination(gens, target, res.combination)
    assert cone_membership(gens, (0, -1)) == geometry.ConeMembership(False, None, (0, 1))


@st.composite
def cones_with_lines(draw):
    """Integer generators in dimension 1-4, some of them with their negations."""
    gens = draw(generator_sets)
    negated = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
    return gens + [tuple(-x for x in g) for g in negated]


@settings(max_examples=200, deadline=None)
@given(cones_with_lines(), st.data())
def test_membership_in_cones_with_lines_matches_the_simplex(gens, data):
    dim = len(gens[0])
    target = tuple(
        F(x) for x in data.draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    )
    res = cone_membership(gens, target)
    columns = [[g[k] for g in gens] for k in range(dim)]
    assert res.member == solve_equality_feasibility(*rational_lp(columns, list(target))).feasible
    if res.member:
        check_combination(gens, target, res.combination)
    else:
        assert all(dot(res.separator, g) >= 0 for g in gens)
        assert dot(res.separator, target) < 0


# ---------------------------------------------------------------------------
# Face descent on the cached table against a per-step dot product reference
# ---------------------------------------------------------------------------


def reference_membership(generators, target):
    """cone_membership with the face descent that takes every value as a dot product.

    It builds the ray x generator table for itself and recomputes r.cur
    for every live ray after each step.  Same rays, same tie rules: the
    combinations and separators must equal cone_membership's.
    """
    gens = [linalg.primitive(g) for g in generators]
    den = lcm(*(x.denominator for x in target))
    cur = linalg.integral(target)
    lineality, rays = dual_rays(gens)
    for line in lineality:
        val = int_dot(line, cur)
        if val != 0:
            return geometry.ConeMembership(False, None, line if val < 0 else tuple(-x for x in line))
    for ray in rays:
        if int_dot(ray, cur) < 0:
            return geometry.ConeMembership(False, None, ray)
    table = [[int_dot(r, g) for g in gens] for r in rays]
    active = [i for i, g in enumerate(gens) if any(g)]
    live = [k for k, row in enumerate(table) if any(row[i] for i in active)]
    vals = {k: int_dot(rays[k], cur) for k in live}
    weights = {}
    while any(cur):
        binding = next((k for k in live if vals[k] == 0), None)
        if binding is not None:
            active = [i for i in active if table[binding][i] == 0]
            live = [k for k in live if any(table[k][i] for i in active)]
            continue
        if not live:
            span = geometry._express_in_span(cur, den, [gens[i] for i in active])
            for i, w in span.items():
                weights[active[i]] = weights.get(active[i], F(0)) + w
            break
        for g in active:
            best, best_rc, best_rg = None, 0, 0
            for k in live:
                rg = table[k][g]
                if rg > 0 and (best is None or vals[k] * best_rg < best_rc * rg):
                    best, best_rc, best_rg = k, vals[k], rg
            if best is not None:
                break
        weights[g] = weights.get(g, F(0)) + F(best_rc, den * best_rg)
        cur = [best_rg * c - best_rc * x for c, x in zip(cur, gens[g])]
        den *= best_rg
        common = gcd(den, *cur)
        cur = [c // common for c in cur]
        den //= common
        vals = {k: int_dot(rays[k], cur) for k in live}
    combination = {i: w / gcd(*generators[i]) for i, w in weights.items()}
    return geometry.ConeMembership(True, combination, None)


@st.composite
def padded_cones(draw):
    """Generators with zero vectors and repeated (possibly rescaled) generators mixed in."""
    gens = draw(st.one_of(pointed_cones(), cones_with_lines()))
    dim = len(gens[0])
    extra = draw(
        st.lists(
            st.one_of(
                st.just((0,) * dim),
                st.tuples(st.sampled_from(gens), st.integers(1, 3)).map(lambda p: tuple(p[1] * x for x in p[0])),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return draw(st.permutations(gens + extra))


@st.composite
def descent_targets(draw, cones):
    """A cone and a target: a nonnegative combination of its generators, or any small vector."""
    gens = draw(cones)
    dim = len(gens[0])
    if draw(st.booleans()):
        weights = draw(
            st.lists(st.fractions(0, 5, max_denominator=7), min_size=len(gens), max_size=len(gens))
        )
        return gens, tuple(sum((w * g[k] for w, g in zip(weights, gens)), F(0)) for k in range(dim))
    return gens, tuple(F(x) for x in draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(descent_targets(pointed_cones()), descent_targets(cones_with_lines()), descent_targets(padded_cones())))
def test_face_descent_matches_the_dot_product_reference(case):
    gens, target = case
    assert counted_membership(gens, target) == reference_membership(gens, target)


def test_corpus_oracle_memberships_match_the_dot_product_reference(monkeypatch):
    calls = []
    real = feasibility.cone_membership

    def spy(generators, target):
        calls.append((generators, target))
        return real(generators, target)

    monkeypatch.setattr(feasibility, "cone_membership", spy)
    for case in load_cases():
        if case["kind"] == "decide" and "oracle_agrees" in case["expected"]:
            feasibility.brute_force_oracle(parse_problem(case["problem"])["problem"])
    assert any(real(g, t).member for g, t in calls) and not all(real(g, t).member for g, t in calls)
    for generators, target in calls:
        assert real(generators, target) == reference_membership(generators, target)


def test_descent_table_is_built_once_and_only_for_members():
    gens = [(1, x, y) for x in (0, 1) for y in (0, 1)]
    geometry._dual_description.cache_clear()
    assert not cone_membership(gens, (1, 2, 0)).member
    entry = geometry._dual_description(tuple(gens))
    assert "faces" not in vars(entry)  # rejecting builds no table
    assert cone_membership(gens, vec(1, F(1, 3), F(2, 3))).member
    faces = entry.faces
    columns, support = faces
    assert columns == [[int_dot(r, g) for r in entry.rays] for g in gens]
    assert support == [sum(1 << i for i, g in enumerate(gens) if int_dot(r, g)) for r in entry.rays]
    assert cone_membership(gens, vec(1, F(1, 2), F(1, 5))).member
    assert geometry._dual_description(tuple(gens)).faces is faces


# ---------------------------------------------------------------------------
# The oracle's integer boundary against a Fraction reference
# ---------------------------------------------------------------------------


def fraction_oracle(problem):
    """Reference oracle on Fraction moment vectors: (verdict, certificate, masses).

    One generator per distinct column, first seen first: (monomial
    values, 1) per atom in lattice order, then (+-1 at its row, 0) per
    bounded constraint.  Each goes to cone_membership as its smallest
    integer multiple, and the weights are scaled back onto the vectors.
    """
    atoms = list(problem.atom_space())
    m = len(problem.constraints)
    columns = [(*(problem.monomial_value(c, a) for c in problem.constraints), F(1)) for a in atoms]
    for i, c in enumerate(problem.constraints):
        if c.relation != "==":
            sign = 1 if c.relation == "<=" else -1
            columns.append((*(F(sign * (k == i)) for k in range(m)), F(0)))
    first = {}
    for j, column in enumerate(columns):
        first.setdefault(column, j)
    gens = list(first)
    column_of = list(first.values())
    target = (*(c.target for c in problem.constraints), F(1))
    res = cone_membership([tuple(linalg.integral(g)) for g in gens], target)
    if not res.member:
        return "infeasible", tuple(map(F, res.separator)), None
    masses = {
        atoms[column_of[i]]: w * lcm(*(x.denominator for x in gens[i]))
        for i, w in res.combination.items()
        if w > 0 and column_of[i] < len(atoms)
    }
    return "feasible", None, masses


def oracle_problems(rng, count):
    for case in load_cases():
        if case["kind"] == "decide":
            yield parse_problem(case["problem"])["problem"]
    for _ in range(count):
        yield random_problem(rng)


def test_oracle_matches_the_fraction_reference(rng):
    checked = 0
    for problem in oracle_problems(rng, 150):
        res = feasibility.brute_force_oracle(problem)
        verdict, certificate, masses = fraction_oracle(problem)
        assert res.verdict == verdict
        assert res.certificate == certificate
        assert res.certificate is None or all(type(x) is F for x in res.certificate)
        assert (dict(res.witness.mass) if res.witness else None) == masses
        checked += 1
    assert checked > 150


def test_oracle_hands_geometry_integer_tuples(monkeypatch, rng):
    calls, gens_seen = [], []
    real_membership, real_rays = feasibility.cone_membership, geometry.dual_rays

    def membership_spy(generators, target):
        calls.append((generators, target))
        return real_membership(generators, target)

    def rays_spy(generators):
        gens_seen.extend(generators)
        return real_rays(generators)

    monkeypatch.setattr(feasibility, "cone_membership", membership_spy)
    monkeypatch.setattr(geometry, "dual_rays", rays_spy)
    for problem in oracle_problems(rng, 30):
        feasibility.brute_force_oracle(problem)
    assert len(calls) > 30
    for generators, target in calls:
        assert all(isinstance(g, tuple) and all(type(x) is int for x in g) for g in generators)
        # Normalization last: L on every atom, 0 on every slack, L in the target.
        assert {g[-1] for g in generators} <= {0, target[-1]}
    assert all(type(x) is int for g in gens_seen for x in g)
    assert all(gcd(*g) == 1 for g in gens_seen if any(g))
