"""Pairwise intersection enumeration: an independent triangulation oracle.

For every pair of simplices the vertices of their intersection polytope
are enumerated by brute force (every rank-subset of the two facet
systems, solved by Cramer's rule in integer arithmetic).  That costs
O(n^2 * C(2d+2, d)) determinants, so it lives here, as a cross-check of
``verify_cover``, and not in the library.

A decomposition is a triangulation exactly when ``pairwise_cover`` and
``pairwise_regular_position`` both pass: every two simplices meet in
the hull of their common vertices, and the volumes add up to the hull's.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from sumsethull.geometry import intrinsic_integer_coords
from sumsethull.hull import cross_normal, hull_volume, int_det, simplex_volume

from echelon_oracle import affine_rank, echelon


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def solve_unique(rows, rhs) -> tuple[Fraction, ...] | None:
    """Solve a linear system expected to have full column rank.

    Returns the unique solution, or None when the system is
    inconsistent.  Raises ValueError if the coefficient matrix does not
    have full column rank (the solution would not be unique).
    """
    ncols = len(rows[0]) if rows else 0
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    aug, pivots = echelon(aug)
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    sol = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        sol[c] = aug[r][-1]
    return tuple(sol)


def facet_system(simplex, coords):
    """Inequalities <normal, x> <= offset describing one simplex."""
    rows = []
    for j in range(len(simplex)):
        face = simplex[:j] + simplex[j + 1:]
        normal = cross_normal([coords[i] for i in face])
        offset = _dot(normal, coords[face[0]])
        if _dot(normal, coords[simplex[j]]) - offset > 0:
            normal = tuple(-v for v in normal)
            offset = -offset
        rows.append((normal, offset))
    return rows


def intersection_vertices(sys1, sys2, rank):
    """Vertices of the polytope cut out by two simplex facet systems.

    Returns deduplicated (numerators, denominator > 0) pairs, sorted.
    """
    constraints = sys1 + sys2
    found = set()
    for subset in combinations(range(len(constraints)), rank):
        den = int_det([list(constraints[i][0]) for i in subset])
        if den == 0:
            continue
        nums = []
        for col in range(rank):
            repl = [
                [constraints[i][1] if c == col else constraints[i][0][c] for c in range(rank)]
                for i in subset
            ]
            nums.append(int_det(repl))
        if den < 0:
            den = -den
            nums = [-v for v in nums]
        if all(_dot(n, nums) <= c * den for n, c in constraints):
            g = den
            for v in nums:
                g = gcd(g, abs(v))
            found.add((tuple(v // g for v in nums), den // g))
    return sorted(found)


def in_hull_of_independent(points, q) -> bool:
    """Membership of a rational point in the hull of affinely independent points."""
    rows = [[p[c] for p in points] for c in range(len(q))]
    rows.append([1] * len(points))
    sol = solve_unique(rows, list(q) + [1])
    return sol is not None and all(c >= 0 for c in sol)


def _setup(D):
    coords_list, rank = intrinsic_integer_coords(D.ground.points)
    coords = dict(enumerate(coords_list))
    simplices = [s.vertex_indices for s in D.simplices]
    systems = [facet_system(s, coords) for s in simplices]
    return coords_list, coords, rank, simplices, systems


@dataclass(frozen=True)
class PairwiseCover:
    passed: bool
    total_simplex_volume: Fraction
    hull_volume: Fraction
    overlapping_pair: tuple[int, int] | None = None


def pairwise_cover(D) -> PairwiseCover:
    """Volumes add up to the hull's and no two simplices overlap in volume."""
    coords_list, coords, rank, simplices, systems = _setup(D)
    total = sum((simplex_volume([coords[i] for i in s]) for s in simplices), Fraction(0))
    hull_vol = hull_volume(coords_list)
    for i, j in combinations(range(len(simplices)), 2):
        verts = intersection_vertices(systems[i], systems[j], rank)
        if len(verts) <= rank:
            continue
        pts = [tuple(Fraction(v, den) for v in nums) for nums, den in verts]
        if affine_rank(pts) == rank:
            return PairwiseCover(False, total, hull_vol, (i, j))
    return PairwiseCover(total == hull_vol, total, hull_vol)


@dataclass(frozen=True)
class PairwiseRegularPosition:
    passed: bool
    offending_pair: tuple[int, int] | None = None
    witness: tuple | None = None


def pairwise_regular_position(D) -> PairwiseRegularPosition:
    """Every pairwise intersection lies in the hull of the shared vertices.

    The witness is an intersection vertex outside that hull, as exact
    rationals in the intrinsic coordinates of the ground set.
    """
    _, coords, rank, simplices, systems = _setup(D)
    for i, j in combinations(range(len(simplices)), 2):
        shared = [coords[v] for v in sorted(set(simplices[i]) & set(simplices[j]))]
        for nums, den in intersection_vertices(systems[i], systems[j], rank):
            q = tuple(Fraction(v, den) for v in nums)
            if not shared or not in_hull_of_independent(shared, q):
                return PairwiseRegularPosition(False, (i, j), q)
    return PairwiseRegularPosition(True)


def is_triangulation(D) -> bool:
    return pairwise_cover(D).passed and pairwise_regular_position(D).passed
