"""Exact affine geometry over integer lattice points.

All predicates are decided with arbitrary-precision integer arithmetic:
there is no floating point and no epsilon anywhere.  Input points carry
integer coordinates, and every sign test and membership query has a
single correct answer.

One fraction-free Gauss–Jordan elimination, ``_gauss_jordan`` (Bareiss
1968), with the LP's row update, answers every rank, coordinate and
determinant question.  Over the difference vectors of a point sequence
it gives, in one pass, the points that raise the affine rank
(``affine_basis``, ``affine_rank``) and the coordinates of every point in
their basis over one common denominator (``intrinsic_integer_coords``);
``barycentric`` runs it on its augmented system, and ``hull.int_det``
reads its denominator.  The LP of ``conv_contains`` is the other solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd
from operator import index
from typing import Iterable, Sequence

from .exactlp import _eliminate, feasible_nonneg

def _exact_int(v, what: str) -> int:
    """The value as an int; a float, Fraction or bool is refused, never truncated."""
    if not isinstance(v, bool):
        try:
            return index(v)
        except TypeError:
            pass
    raise ValueError(f"{what} {v!r} is not an integer")


def _exact_point(p) -> tuple[int, ...]:
    """The point as a tuple of ints; a float, Fraction or bool coordinate is refused."""
    p = tuple(p)
    try:
        if not any(isinstance(c, bool) for c in p):
            return tuple(map(index, p))
    except TypeError:
        pass
    raise ValueError(f"point {p} has a coordinate that is not an integer")


@dataclass(frozen=True)
class PointSet:
    """An ordered, duplicate-free set of integer points in Z^dim.

    Points are plain tuples of Python ints, so equality and hashing are
    by exact coordinate values; a float, Fraction or bool coordinate is
    refused, never truncated.  The set may be empty (useful for
    partition cells); operations that need points enforce nonemptiness
    themselves.
    """

    dim: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        pts = self.points
        # A tuple of tuples of exact ints is kept as it is; anything else
        # goes through the per-point check, which names the bad point.
        if not (
            type(pts) is tuple
            and set(map(type, pts)) <= {tuple}
            and set(map(type, chain.from_iterable(pts))) <= {int}
        ):
            pts = tuple(map(_exact_point, pts))
        if set(map(len, pts)) - {self.dim}:
            p = next(p for p in pts if len(p) != self.dim)
            raise ValueError(f"point {p} has {len(p)} coordinates, expected {self.dim}")
        if len(set(pts)) != len(pts):
            seen = set()
            for p in pts:
                if p in seen:
                    raise ValueError(f"duplicate point {p}")
                seen.add(p)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_points(cls, points: Iterable[Sequence[int]], dim: int | None = None) -> "PointSet":
        """Build a PointSet from an iterable of coordinate sequences.

        The dimension is inferred from the first point unless given
        explicitly (required for an empty set).
        """
        pts = [tuple(p) for p in points]
        if dim is None:
            if not pts:
                raise ValueError("cannot infer dimension of an empty point set")
            dim = len(pts[0])
        return cls(dim, tuple(pts))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def _members(self) -> frozenset:
        # Built on the first membership test; not a field, so equality,
        # hashing and serialization still see only dim and points.
        return frozenset(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in self._members

    @cached_property
    def _affine_dim(self) -> int:
        # Built on the first ``affine_dimension`` call, like ``_members``.
        return affine_rank(self.points)


@dataclass(frozen=True)
class BarycentricCoords:
    """Exact convex coefficients of a point with respect to simplex vertices.

    ``coeffs[i]`` is the weight of the vertex at position ``basis[i]``;
    all weights are >= 0 and sum to exactly 1.
    """

    coeffs: tuple[Fraction, ...]
    basis: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.basis):
            raise ValueError("coefficients and basis differ in length")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("barycentric coefficients must be nonnegative")
        if sum(self.coeffs, Fraction(0)) != 1:
            raise ValueError("barycentric coefficients must sum to 1")


def _gauss_jordan(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss–Jordan elimination of an integer matrix (Bareiss).

    Returns ``(rows, pivots, den)``, with ``rows`` den times the reduced
    row echelon form.  Pivot columns are taken greedily in order, and each
    update is ``_eliminate``, exact by Sylvester's identity as in the LP.
    A row moved up by a swap is negated, so ``den`` is the determinant of
    the pivot rows and columns, and of the whole input when it is square
    of full rank.  The input is not modified; a non-integer entry is refused.
    """
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        for v in chain.from_iterable(rows):
            _exact_int(v, "matrix entry")
    rows = list(rows)
    m = len(rows)
    pivots = []
    den = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == m:
            break
        for p in range(r, m):
            if rows[p][c]:
                break
        else:
            continue
        if p != r:
            rows[r], rows[p] = [-v for v in rows[p]], rows[r]
        prow = rows[r]
        pv = prow[c]
        rows = [row if i == r else _eliminate(row, prow, pv, den, c) for i, row in enumerate(rows)]
        den = pv
        pivots.append(c)
    return rows, pivots, den


def _difference_elimination(points: Sequence[Sequence]) -> tuple[list[list[int]], list[int], int]:
    """``_gauss_jordan`` with the difference vectors p_i - p_0 as columns.

    The pivots are the points that raise the affine rank, and column i - 1
    holds den times the coordinates of p_i - p_0 in their basis.
    """
    if not points:
        raise ValueError("empty point set")
    p0 = points[0]
    return _gauss_jordan([[p[c] - p0[c] for p in points[1:]] for c in range(len(p0))])


def affine_basis(points: Sequence[Sequence]) -> list[int]:
    """Indices, in order, of the points that raise the affine rank.

    Point 0 always opens the basis; point i joins it when it lies off
    the affine hull of the points before it.
    """
    _, pivots, _ = _difference_elimination(points)
    return [0] + [j + 1 for j in pivots]


def affine_rank(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull of the given coordinate tuples."""
    return len(affine_basis(points)) - 1


def _check_point(dim: int, q: Sequence) -> tuple:
    q = tuple(q)
    if len(q) != dim:
        raise ValueError(f"point {q} has {len(q)} coordinates, expected {dim}")
    return q


def affine_dimension(P: PointSet) -> int:
    """Dimension of the affine hull of P.

    P is proper d-dimensional (not contained in any affine hyperplane of
    its ambient space) exactly when this equals ``P.dim``.  Computed once
    per set and kept on it.
    """
    if len(P) == 0:
        raise ValueError("empty point set")
    return P._affine_dim


def conv_contains(P: PointSet, q: Sequence) -> bool:
    """Exact test whether q lies in the convex hull of P.

    Decided as rational feasibility of the convex-combination system
    (weights >= 0, summing to 1, reproducing q) via a phase-1 simplex
    method with Bland's anti-cycling rule, so the answer never depends
    on a tolerance.
    """
    if len(P) == 0:
        raise ValueError("empty point set")
    q = _check_point(P.dim, q)
    rows = [[p[c] for p in P.points] for c in range(P.dim)]
    rows.append([1] * len(P))
    rhs = list(q) + [1]
    return feasible_nonneg(rows, rhs)


def vertex_set(P: PointSet) -> PointSet:
    """The extremal points of P, in the order they appear in P.

    A point is a vertex when it is not in the convex hull of the other
    points of P.
    """
    if len(P) == 0:
        raise ValueError("empty point set")
    if len(P) == 1:
        return P
    kept = []
    for i, p in enumerate(P.points):
        others = PointSet(P.dim, P.points[:i] + P.points[i + 1:])
        if not conv_contains(others, p):
            kept.append(p)
    return PointSet(P.dim, tuple(kept))


def barycentric(S: PointSet, q: Sequence) -> BarycentricCoords | None:
    """Exact barycentric coordinates of q with respect to simplex vertices S.

    S must be affinely independent (a simplex vertex set, possibly of
    lower dimension than the ambient space).  Returns None when q lies
    outside conv S, either off the affine hull or with some negative
    weight; otherwise the unique exact rational coefficients.
    """
    if len(S) == 0:
        raise ValueError("empty point set")
    q = _check_point(S.dim, q)
    n = len(S)
    # One elimination of [vertices | q] over [1 ... 1 | 1]: the vertex
    # columns pivot exactly when S is affinely independent, and a pivot
    # in the q column means q is off the affine hull.
    rows = [[p[c] for p in S.points] + [q[c]] for c in range(S.dim)]
    rows.append([1] * (n + 1))
    rows, pivots, den = _gauss_jordan(rows)
    if pivots[:n] != list(range(n)):
        raise ValueError("degenerate simplex")
    if n in pivots:
        return None
    # Weight i is nums[i] / den; its sign is decided on the integers.
    nums = [row[n] for row in rows[:n]]
    if any(v * den < 0 for v in nums):
        return None
    return BarycentricCoords(tuple(Fraction(v, den) for v in nums), tuple(range(n)))


def intrinsic_integer_coords(points: Sequence[Sequence]):
    """Affine map of points onto an integer grid of their affine hull.

    Returns ``(coords, rank)``: ``coords[i]`` is the image of
    ``points[i]`` as an integer tuple in rank-dimensional space.  The
    map is injective and affine, so convexity, incidence and ratios of
    volumes are preserved; when the points already span their space it
    is the identity.  Otherwise they are the coordinates of p_i - p_0
    in the basis of ``affine_basis``, read off the same elimination and
    scaled by the least common denominator of their reduced fractions.
    """
    rows, pivots, den = _difference_elimination(points)
    rank = len(pivots)
    if rank == len(points[0]):
        return [tuple(int(c) for c in p) for p in points], rank
    nums = [(0,) * rank] + [tuple(row[j] for row in rows[:rank]) for j in range(len(points) - 1)]
    # Each coordinate is num / den, and the lcm of the reduced denominators
    # is |den| / g with g = gcd(den, every num): scaled, num / g signed like den.
    g = gcd(den, *chain.from_iterable(nums))
    if den < 0:
        g = -g
    return [tuple(v // g for v in t) for t in nums], rank
