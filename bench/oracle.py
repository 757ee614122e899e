"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports sumsethull.  Sumsets are built by iterated pairwise
set sums (never by multisets, as the program does), and hulls in the
plane and in space by brute-force supporting hyperplanes with volumes
from projected facet polygons (never by the program's facet fan).  All
arithmetic is on Python ints and Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def add_sets(X, Y) -> set:
    return {tuple(a + b for a, b in zip(x, y)) for x in X for y in Y}


def iterated_sum(A, B, k: int) -> set:
    """A + kB as ((A + B) + B) + ... with k additions of B."""
    S = set(map(tuple, A))
    for _ in range(k):
        S = add_sets(S, B)
    return S


def freiman_bound(m: int, d: int) -> int:
    return m * (d + 1) - d * (d + 1) // 2


def kfold_bound(m: int, d: int, k: int) -> int:
    return m * comb(d + k, k) - k * comb(d + k, k + 1)


def simplex_count(m: int, m1: int, d: int, k: int) -> int:
    """|A + kB| for B a d-simplex vertex set, A in conv B, m1 = |A & B|."""
    return (m - m1) * comb(d + k, k) + comb(d + k + 1, k + 1) - comb(d - m1 + k + 1, k + 1)


def det(rows) -> int:
    """Determinant by cofactor expansion along the first row (small sizes only)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det(minor)
    return total


def affine_rank(points) -> int:
    """Dimension of the affine hull, by exact elimination over Fractions."""
    rows = [[Fraction(b - a) for a, b in zip(points[0], p)] for p in points[1:]]
    rank = 0
    for c in range(len(points[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _normal(points) -> tuple:
    """Primitive integer normal of the hyperplane through d points in Z^d."""
    d = len(points[0])
    diffs = [[b - a for a, b in zip(points[0], p)] for p in points[1:]]
    normal = [(-1) ** j * det([r[:j] + r[j + 1:] for r in diffs]) for j in range(d)]
    g = 0
    for v in normal:
        g = gcd(g, v)
    return tuple(v // g for v in normal) if g else ()


def facets(points) -> list[tuple[tuple, int, tuple]]:
    """Supporting hyperplanes of conv(points) in dimension 2 or 3.

    Returns (normal, offset, on_facet) with <normal, p> <= offset for every
    point; ``on_facet`` lists the points on the hyperplane.  The points
    must span their space.
    """
    pts = sorted(set(map(tuple, points)))
    d = len(pts[0])
    found = {}
    for subset in combinations(pts, d):
        n = _normal(subset)
        if not n:
            continue
        h = sum(a * b for a, b in zip(n, subset[0]))
        sides = [sum(a * b for a, b in zip(n, p)) - h for p in pts]
        if max(sides) > 0 and min(sides) < 0:
            continue
        if max(sides) > 0:
            n, h = tuple(-v for v in n), -h
        if (n, h) not in found:
            found[(n, h)] = tuple(p for p, s in zip(pts, sides) if s == 0)
    return [(n, h, on) for (n, h), on in sorted(found.items())]


def _polygon(points2d) -> list:
    """Strict vertices of a planar point set's hull, counter-clockwise."""
    pts = sorted(set(points2d))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _twice_area(poly) -> int:
    return abs(sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(poly, poly[1:] + poly[:1])))


def _drop(n) -> int:
    return max(range(len(n)), key=lambda j: (abs(n[j]), -j))


def _facet_vertices(n, on) -> list:
    if len(n) == 2:
        return [min(on), max(on)]
    j = _drop(n)
    proj = {p[:j] + p[j + 1:]: p for p in on}
    return [proj[q] for q in _polygon(list(proj))]


def hull_vertices(points) -> set:
    """Vertices of conv(points) for a proper set in dimension 2 or 3."""
    return {v for n, _, on in facets(points) for v in _facet_vertices(n, on)}


def boundary_points(points) -> set:
    """Points of the set lying on the boundary of its hull."""
    return {p for _, _, on in facets(points) for p in on}


def hull_volume(points) -> Fraction:
    """Volume of conv(points) in dimension 2 or 3, as a sum of facet cones.

    Each facet is projected along its normal's largest coordinate; its
    (d-1)-volume there, scaled by |n|/|n_j|, times the apex height
    (h - <n, c>)/|n|, over d, is the cone's volume, so |n| cancels.
    """
    pts = [tuple(p) for p in points]
    c = pts[0]
    d = len(c)
    total = Fraction(0)
    for n, h, on in facets(pts):
        j = _drop(n)
        if d == 2:
            size = max(p[1 - j] for p in on) - min(p[1 - j] for p in on)
        else:
            size = Fraction(_twice_area(_polygon([p[:j] + p[j + 1:] for p in on])), 2)
        total += size * Fraction(h - sum(a * b for a, b in zip(n, c)), d * abs(n[j]))
    return total


def simplex_volume(vertices) -> Fraction:
    d = len(vertices[0])
    diffs = [[b - a for a, b in zip(vertices[0], p)] for p in vertices[1:]]
    return Fraction(abs(det(diffs)), factorial(d))


def in_simplex(vertices, q) -> bool:
    """q in the hull of d+1 affinely independent points, by signed volumes."""
    full = det([[b - a for a, b in zip(vertices[0], p)] for p in vertices[1:]])
    for i in range(len(vertices)):
        swapped = list(vertices)
        swapped[i] = q
        sub = det([[b - a for a, b in zip(swapped[0], p)] for p in swapped[1:]])
        if sub * full < 0:
            return False
    return True


def lattice_points_in_hull(points) -> list:
    """Integer points of conv(points), in lexicographic order."""
    hs = facets(points)
    d = len(points[0])
    box = [range(min(p[c] for p in points), max(p[c] for p in points) + 1) for c in range(d)]
    return [
        q for q in product(*box)
        if all(sum(a * b for a, b in zip(n, q)) <= h for n, h, _ in hs)
    ]


def leave_one_out_sums(sets) -> tuple[int, int]:
    """(|S|, |S'|) for integer sets A_1..A_k, S' = union of S_i + {min A_i, max A_i}."""
    whole = {0}
    for s in sets:
        whole = {x + y for x in whole for y in s}
    union = set()
    for i, s in enumerate(sets):
        part = {0}
        for j, t in enumerate(sets):
            if j != i:
                part = {x + y for x in part for y in t}
        union |= {x + y for x in part for y in (min(s), max(s))}
    return len(whole), len(union)
