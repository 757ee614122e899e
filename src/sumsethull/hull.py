"""Brute-force convex hull machinery with integer arithmetic.

Facets are found by enumerating point subsets and keeping the supporting
hyperplanes; volumes come from a fan triangulation over those facets.
This path is deliberately independent of the incremental simplicial
decomposition, so the two can cross-check each other exactly.  All
coordinates here are integers (callers scale rational intrinsic
coordinates up front), which keeps the hot loops on fast int arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd
from operator import mul

from .geometry import PointSet, _gauss_jordan, affine_dimension, affine_rank, intrinsic_integer_coords

_BOX_CELL_LIMIT = 20_000_000


def int_det(mat: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix: its elimination's den, or 0 if singular."""
    _, pivots, den = _gauss_jordan(mat)
    return den if len(pivots) == len(mat) else 0


def cross_normal(points: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Integer normal of the hyperplane through d points in d-space.

    Generalized cross product of the d-1 difference vectors: component j
    is the signed cofactor obtained by deleting column j.  Returns None
    when the points are affinely dependent (all cofactors vanish).
    """
    d = len(points[0])
    diffs = [tuple(b - a for a, b in zip(points[0], p)) for p in points[1:]]
    normal = []
    for j in range(d):
        minor = [[row[c] for c in range(d) if c != j] for row in diffs]
        normal.append((-1) ** j * int_det(minor))
    if all(v == 0 for v in normal):
        return None
    return tuple(normal)


@dataclass(frozen=True)
class Facet:
    """One facet of a hull: <normal, x> <= offset for all hull points."""

    normal: tuple[int, ...]
    offset: int
    support: tuple[int, ...]  # indices of the points lying on the facet


def hull_facets(coords: list[tuple[int, ...]]) -> list[Facet]:
    """All facets of conv(coords), by brute force over point subsets.

    ``coords`` must span their full coordinate space.  Every d-subset
    that spans a hyperplane with all points on one (non-strict) side
    contributes a facet; duplicates discovered through different subsets
    are merged by their support set.  Facets come back sorted by support
    for determinism, oriented with the hull on the <= side.
    """
    d = len(coords[0])
    by_support: dict[tuple[int, ...], Facet] = {}
    for subset in combinations(range(len(coords)), d):
        normal = cross_normal([coords[i] for i in subset])
        if normal is None:
            continue
        g = 0
        for v in normal:
            g = gcd(g, abs(v))
        normal = tuple(v // g for v in normal)
        base = coords[subset[0]]
        offset = sum(n * c for n, c in zip(normal, base))
        pos = neg = False
        sides = []
        for p in coords:
            s = sum(n * c for n, c in zip(normal, p)) - offset
            sides.append(s)
            pos = pos or s > 0
            neg = neg or s < 0
        if pos and neg:
            continue
        if pos:
            normal = tuple(-v for v in normal)
            offset = -offset
        support = tuple(i for i, s in enumerate(sides) if s == 0)
        if support not in by_support:
            by_support[support] = Facet(normal, offset, support)
    return [by_support[s] for s in sorted(by_support)]


def fan_triangulation(coords: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Triangulate conv(coords) by coning facets from one hull vertex.

    The apex is the lexicographically smallest point (always extremal);
    each facet not containing it is triangulated recursively in its own
    integer coordinates and then coned.  Returns sorted index tuples.
    Intended as a volume oracle: interior points may be skipped.
    """
    d = len(coords[0])
    n = len(coords)
    if n == d + 1:
        return [tuple(range(n))]
    apex = min(range(n), key=lambda i: coords[i])
    simplices = []
    for facet in hull_facets(coords):
        if apex in facet.support:
            continue
        if len(facet.support) == d:
            simplices.append(tuple(sorted(facet.support + (apex,))))
            continue
        sub_points = [coords[i] for i in facet.support]
        sub_coords, rank = intrinsic_integer_coords(sub_points)
        if rank != d - 1:
            raise RuntimeError("facet support does not span a hyperplane")
        for tri in fan_triangulation(sub_coords):
            simplices.append(tuple(sorted(tuple(facet.support[i] for i in tri) + (apex,))))
    return simplices


def simplex_volume(vertices: list[tuple[int, ...]]) -> Fraction:
    """|det| / d! volume of a d-simplex given by d+1 integer points."""
    d = len(vertices[0])
    diffs = [[b - a for a, b in zip(vertices[0], p)] for p in vertices[1:]]
    return Fraction(abs(int_det(diffs)), factorial(d))


def hull_volume(coords: list[tuple[int, ...]]) -> Fraction:
    """Exact volume of conv(coords) via the facet-fan triangulation."""
    if affine_rank(coords) != len(coords[0]):
        raise ValueError("point set must span its coordinate space")
    total = Fraction(0)
    for tri in fan_triangulation(coords):
        total += simplex_volume([coords[i] for i in tri])
    return total


def lattice_points(P: PointSet) -> list[tuple[int, ...]]:
    """All integer points of conv(P), in lexicographic order.

    A scanline over the integer bounding box: for each integer prefix of
    the leading d-1 coordinates, the facet inequalities bound the last
    coordinate by exact floor and ceiling divisions (a facet with last
    normal component 0 keeps or drops the whole prefix), and the run
    between the bounds is emitted in order.  Exact integer arithmetic,
    no tolerance.  P must be proper d-dimensional so the facet system
    describes the hull.
    """
    if affine_dimension(P) != P.dim:
        raise ValueError("point set must be proper d-dimensional")
    los = [min(p[c] for p in P.points) for c in range(P.dim)]
    his = [max(p[c] for p in P.points) for c in range(P.dim)]
    cells = 1
    for lo, hi in zip(los, his):
        cells *= hi - lo + 1
    if cells > _BOX_CELL_LIMIT:
        raise ValueError("bounding box too large for exhaustive lattice enumeration")
    # Each facet as (leading normal, offset, |last normal component| = a),
    # split by the sign of its last component: for the prefix q and
    # r = offset - <leading normal, q>, it reads a x <= r, -a x <= r or 0 <= r.
    uppers, lowers, flats = [], [], []
    for f in hull_facets(list(P.points)):
        last = f.normal[-1]
        (uppers if last > 0 else lowers if last < 0 else flats).append(
            (f.normal[:-1], f.offset, abs(last))
        )
    out = []
    for q in product(*(range(lo, hi + 1) for lo, hi in zip(los[:-1], his[:-1]))):
        if any(sum(map(mul, n, q)) > o for n, o, _ in flats):
            continue
        # a x <= r gives x <= r // a; -a x <= r gives x >= ceil(-r / a) = -(r // a).
        top = min((o - sum(map(mul, n, q))) // a for n, o, a in uppers)
        bottom = max(-((o - sum(map(mul, n, q))) // a) for n, o, a in lowers)
        out.extend(q + (x,) for x in range(bottom, top + 1))
    return out
