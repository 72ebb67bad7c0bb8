"""Exact polyhedral cone geometry: double description and membership.

This is the second, simplex-independent decision path for moment
feasibility.  A moment problem is feasible exactly when the homogenized
target vector t~ = (targets, 1) lies in the cone generated by the
homogenized atom moment columns g_i = (monomial values at atom i, 1).

Membership is decided by enumerating the generators' dual description
(the extreme rays of {u : u.g_i >= 0 for all i}) with the classic
incremental double-description method using the combinatorial adjacency
test (Fukuda & Prodon, "Double description method revisited", 1996).
A violated dual ray is itself a Farkas-style separation certificate.
When the target is a member, an explicit conic combination is recovered
by descending through faces, reusing the same rays: for a dual ray r
the face F = C ∩ r⊥ equals C ∩ {x : r.x <= 0}, so its dual is
F* = C* + R·r (the dual of an intersection of polyhedral cones is the
sum of their duals), and the rays of C* describe every face's dual.
A cone that contains a line has as its smallest face its lineality
space C ∩ -C, on which every dual ray vanishes; the descent ends there,
and the rest of the target is written through one small double
description of the generators' relations.
The dual description depends only on the generators, never on the
target: :func:`dual_rays` computes it once per distinct generator set
and keeps it in a bounded cache, so a sweep of targets over one set of
monomials runs one double description in all, and every
:func:`cone_membership` call still asks :func:`dual_rays` for it.  The
face descent's table is target-independent too: the value of every ray
on every generator, by generator, and per ray an ``int`` bitmask of the
generators it is positive on.  The first descent over a generator set
builds it in the same cache entry, so a set that only ever rejects
never pays for it.  A descent step then costs O(live rays) integer
operations: the live rays' values are updated from the table, not
recomputed as dot products in the whole dimension.

Everything is exact and integer: generators are integer vectors, which
:func:`cone_membership` scales to primitive form once (that leaves the
dual cone unchanged); rays, lineality vectors and separators are
primitive integer tuples; each ray's zero set is an ``int`` bitmask
over the halfspace normals; and all linear algebra goes through the
fraction-free kernel in :mod:`jointfeas.linalg`.  Only the target may
be rational, and only the combination weights are ``Fraction`` values.

Scale expectations, on one core of a shared 2-vCPU Xeon VM under
CPython 3.11 (best of five, three targets each).  A +-1 problem on
four variables with means and pair moments (16 generators in dimension
11, 56 dual rays): a cold call (its generator set not yet cached) takes
about 2-3 ms when feasible and 1.6-2.5 ms when not; a cached one about
0.2 ms when feasible and 0.02 ms when not.  A three-valued problem on
three variables with means, squares and pair moments (27 generators in
dimension 10, 173 rays): about 11-14 ms cold either way, and 0.4 and
0.03 ms cached.  Each inserted halfspace scans all pairs of rays on its
two sides, and the ray count grows quickly with the dimension: the
three-valued problem on four variables (81 generators in dimension 15)
held 39,477 rays after 44 s, unfinished.  So past :data:`RAY_BUDGET` rays
the double description raises :class:`~jointfeas.errors.SizeCapError`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

import numpy as np

from . import linalg
from .errors import SizeCapError
from .linalg import IntVec, independent_rows, integral, primitive

__all__ = ["RAY_BUDGET", "ConeMembership", "cone_membership", "dual_rays"]

# The most rays a double description may hold; the corpus, the tests and
# the benchmark's oracle workload hold at most 288.
RAY_BUDGET = 4096


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _rays_by_normal(zero_sets: list[int], count: int) -> list[int]:
    """Transpose zero sets: entry k has bit i set when ray i is tight on normal k."""
    on = [0] * count
    for i, z in enumerate(zero_sets):
        bit = 1 << i
        while z:
            low = z & -z
            on[low.bit_length() - 1] |= bit
            z ^= low
    return on


def _extreme_rays_pointed(halfspaces: list[IntVec]) -> list[IntVec]:
    """Extreme rays of {u : a.u >= 0 for a in halfspaces}.

    Requires the halfspace normals to span the whole space, which makes
    the cone pointed.  Incremental double description: seed a simplicial
    cone from independent normals, insert the rest, keep only rays built
    from adjacent pairs (combinatorial adjacency test).  Bit k of a
    ray's zero set is set when the ray lies on the hyperplane of normal
    k; only normals inserted so far are recorded.  Raises
    :class:`SizeCapError` once more than :data:`RAY_BUDGET` rays are held.
    """
    dim = len(halfspaces[0])
    normals = list(dict.fromkeys(p for p in map(primitive, halfspaces) if any(p)))

    base = independent_rows(normals)
    if len(base) != dim:
        raise ValueError("halfspace normals do not span; cone is not pointed")

    # Seed ray j solves basis_rows . x = e_j: column j of the inverse.
    adj, det = linalg.inverse([normals[i] for i in base])
    sign = 1 if det > 0 else -1
    rays = [primitive([sign * row[j] for row in adj]) for j in range(dim)]
    base_mask = sum(1 << i for i in base)
    zero_sets = [base_mask & ~(1 << base[j]) for j in range(dim)]

    for k, normal in enumerate(normals):
        if base_mask >> k & 1:
            continue
        vals = [_dot(normal, r) for r in rays]
        plus = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        bit = 1 << k
        new_rays = [rays[i] for i in plus] + [rays[i] for i in zero]
        new_zero_sets = [zero_sets[i] for i in plus] + [zero_sets[i] | bit for i in zero]
        on = _rays_by_normal(zero_sets, len(normals)) if plus and minus else []
        everything = (1 << len(rays)) - 1
        for i in plus:
            zi, vi, ri = zero_sets[i], vals[i], rays[i]
            for j in minus:
                common = zi & zero_sets[j]
                # Adjacent rays share at least dim - 2 tight normals.
                if common.bit_count() < dim - 2:
                    continue
                # Combinatorial test: adjacent when no third ray is tight
                # on every normal in common.
                pair = 1 << i | 1 << j
                shared, rest = everything, common
                while rest and shared != pair:
                    low = rest & -rest
                    shared &= on[low.bit_length() - 1]
                    rest ^= low
                if shared != pair:
                    continue
                # Each edge meets the new hyperplane in its own new ray.
                vj = vals[j]
                new_rays.append(primitive([vi * b - vj * a for a, b in zip(ri, rays[j])]))
                new_zero_sets.append(common | bit)
                if len(new_rays) > RAY_BUDGET:
                    raise SizeCapError(f"double description holds more than {RAY_BUDGET} rays, the oracle's budget")
        rays = new_rays
        zero_sets = new_zero_sets
    return rays


def dual_rays(generators: Sequence[Sequence[int]]) -> tuple[list[IntVec], list[IntVec]]:
    """Describe the dual cone D = {u : u.g >= 0 for every integer generator g}.

    Returns (lineality_basis, rays), both primitive integer tuples: D
    equals span(lineality_basis) plus the cone of the rays.  When the
    generators span the space, D is pointed and the double description
    runs on them directly.  Otherwise the rays are computed in
    coordinates of the generators' span and lifted back, so the double
    description always runs on a pointed cone.  The lift is an
    invertible linear map: it preserves every sign test and the greedy
    choice of independent rows, so both paths give the same rays in the
    same order.

    The description is computed once per distinct tuple of generators
    (a bounded cache); each call returns fresh lists.
    """
    entry = _dual_description(tuple(map(tuple, generators)))
    return list(entry.lineality), list(entry.rays)


class _Description:
    """The dual description of one generator set, and its face descent table.

    The table is built by the first face descent over these generators,
    so a generator set that only ever rejects never pays for it.
    """

    def __init__(
        self, generators: tuple[IntVec, ...], lineality: tuple[IntVec, ...], rays: tuple[IntVec, ...]
    ) -> None:
        self.generators = generators
        self.lineality = lineality
        self.rays = rays

    @functools.cached_property
    def faces(self) -> tuple[list[list[int]], list[int]]:
        """``(columns, support)``: columns[i][k] = rays[k].generators[i].

        Bit i of support[k] is set when that entry is nonzero.  Every ray
        lies in the dual cone, so its entries are >= 0: support[k] is also
        the set of generators that ray k is positive on.
        """
        if not self.rays:
            return [], []
        table = linalg.product(np.array(self.rays, object), np.array(self.generators, object).T)
        support = [sum(1 << i for i, x in enumerate(row) if x) for row in table.tolist()]
        return table.T.tolist(), support


@functools.lru_cache(maxsize=32)
def _dual_description(generators: tuple[IntVec, ...]) -> _Description:
    """:func:`dual_rays` of a tuple of integer tuples, as tuples, so it can be shared."""
    basis = [generators[i] for i in independent_rows(generators)]  # rows of the lift map
    if basis and len(basis) == len(generators[0]):
        return _Description(generators, (), tuple(_extreme_rays_pointed(generators)))
    lineality = tuple(linalg.nullspace(generators))
    if not basis:
        return _Description(generators, lineality, ())
    reduced = [tuple(_dot(b, g) for b in basis) for g in generators]
    columns = list(zip(*basis))
    rays = tuple(primitive([_dot(z, col) for col in columns]) for z in _extreme_rays_pointed(reduced))
    return _Description(generators, lineality, rays)


@dataclass(frozen=True)
class ConeMembership:
    member: bool
    combination: dict[int, Fraction] | None  # generator index -> weight >= 0
    separator: IntVec | None  # u with u.g_i >= 0 for all i and u.target < 0


def cone_membership(
    generators: Sequence[Sequence[int]], target: Sequence[Fraction | int]
) -> ConeMembership:
    """Is the rational target a nonnegative combination of the integer generators?  Exact."""
    gens = [primitive(g) for g in generators]
    den = lcm(*(x.denominator for x in target))
    t = integral(target)  # target == t / den
    lineality, rays = dual_rays(gens)
    for line in lineality:
        val = _dot(line, t)
        if val != 0:
            return ConeMembership(False, None, line if val < 0 else tuple(-x for x in line))
    values = []  # values[k] = rays[k].t
    for ray in rays:
        val = _dot(ray, t)
        if val < 0:
            return ConeMembership(False, None, ray)
        values.append(val)
    # The descent's table depends only on the generators: it is kept with
    # the dual description that dual_rays just read.
    columns, support = _dual_description(tuple(gens)).faces
    # gens[i] is generators[i] over the gcd of its entries: rescale each weight.
    combo = {
        i: w / gcd(*generators[i])
        for i, w in _express_in_cone(t, den, gens, values, columns, support).items()
    }
    return ConeMembership(True, combo, None)


def _express_in_cone(
    cur: list[int],
    den: int,
    gens: list[IntVec],
    vals: list[int],
    columns: list[list[int]],
    support: list[int],
) -> dict[int, Fraction]:
    """Conic combination of the generators equal to cur / den.

    Face descent on the dual rays of the whole cone C.  For a dual ray r
    the face F = C ∩ r⊥ has dual F* = C* + R·r, so a point x of span(F)
    lies in F exactly when r'.x >= 0 for every ray r' of C*; rays that
    vanish on all of F's generators say nothing and are dropped.  While
    a remaining ("live") ray vanishes on the remainder, restrict to its
    face, a proper face of lower dimension.  Otherwise the remainder is
    in F's relative interior: subtract the largest multiple of one
    generator that keeps every live r'.x >= 0, which lands the remainder
    on a face.  The dimension drops at least every second round, so on a
    pointed cone the combination has at most dim(C) generators.  When C
    contains a line, the descent may end on its lineality space, where
    no live ray is left; :func:`_express_in_span` finishes there.

    ``vals[k]`` is rays[k].cur on entry, and ``columns`` and ``support``
    are the table of :meth:`_Description.faces`.  The face's generators
    are a bitmask, and each step updates the live values from the table
    in integers, with no dot product.  The remainder is kept as one
    integer vector over one positive denominator; only the returned
    weights are ``Fraction`` values.
    """
    active = sum(1 << i for i, g in enumerate(gens) if any(g))
    live = [k for k, s in enumerate(support) if s & active]
    weights: dict[int, Fraction] = {}

    while any(cur):
        binding = next((k for k in live if vals[k] == 0), None)
        if binding is not None:
            active &= ~support[binding]
            if not active:
                raise AssertionError("face descent lost all generators")
            live = [k for k in live if support[k] & active]
            continue

        if not live:
            # No ray is positive on a generator of F, so F = span(F) is the
            # lineality space of C, and cur / den lies in it.
            face = [i for i in range(len(gens)) if active >> i & 1]
            for i, w in _express_in_span(cur, den, [gens[i] for i in face]).items():
                weights[face[i]] = weights.get(face[i], Fraction(0)) + w
            break
        # The first generator of F with a live ray positive on it (in a
        # pointed cone, F's first), and the live ray minimizing r.cur / r.g
        # over r.g > 0.
        reach = 0
        for k in live:
            reach |= support[k]
        reach &= active
        g = (reach & -reach).bit_length() - 1
        column = columns[g]
        best = None
        best_rc = best_rg = 0
        for k in live:
            rg = column[k]
            if rg > 0 and (best is None or vals[k] * best_rg < best_rc * rg):
                best, best_rc, best_rg = k, vals[k], rg
        if best_rc <= 0:
            raise AssertionError("face descent produced a nonpositive step")
        # Subtract (best_rc / (den * best_rg)) * gens[g] from cur / den.
        weights[g] = weights.get(g, Fraction(0)) + Fraction(best_rc, den * best_rg)
        cur = [best_rg * c - best_rc * x for c, x in zip(cur, gens[g])]
        den *= best_rg
        common = gcd(den, *cur)
        cur = [c // common for c in cur]
        den //= common
        # r.cur' = (best_rg * r.cur - best_rc * r.g) / common, exactly: cur'
        # is an integer vector.
        for k in live:
            vals[k] = (best_rg * vals[k] - best_rc * column[k]) // common
    return weights


def _express_in_span(cur: list[int], den: int, gens: list[IntVec]) -> dict[int, Fraction]:
    """Nonnegative weights on ``gens`` that combine to cur / den, when cone(gens) is a linear space.

    The relations {(w, s) >= 0 : sum_i w_i gens[i] = s cur} form a pointed
    cone, and cur lies in cone(gens), so one of its extreme rays has
    s > 0: that ray's w / (s den) are the weights.  An extreme ray has
    minimal support, so at most rank(gens) weights are nonzero.
    """
    size = len(gens) + 1
    units = [tuple(int(i == j) for j in range(size)) for i in range(size)]
    relations = [(*column, -c) for column, c in zip(zip(*gens), cur)]
    halfspaces = units + relations + [tuple(-x for x in row) for row in relations]
    ray = next((r for r in _extreme_rays_pointed(halfspaces) if r[-1] > 0), None)
    if ray is None:
        raise AssertionError("remainder is not in the lineality space")
    return {i: Fraction(w, ray[-1] * den) for i, w in enumerate(ray[:-1]) if w}
