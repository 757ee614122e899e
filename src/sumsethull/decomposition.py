"""Simplicial decomposition of a convex hull in regular position.

``decompose`` builds, for a finite duplicate-free integer point set B, a
sequence of simplices whose union is conv B, such that (a) the union is
exact, (b) no point of B ever lies in a simplex without being one of
its vertices, and (c) every simplex after the first shares a facet with
an earlier one.  It is a placing (beneath-and-beyond) triangulation in
lexicographic order, so each new point is extremal among those placed:
when it raises the affine rank, every simplex so far is coned to it;
otherwise it is coned over the boundary facets it completely sees, in
the affine hull of the points placed.  The boundary is kept between
placements, not rebuilt.

A ``Decomposition`` computes its intrinsic integer frame and its facet
table once; the ``verify_*`` operations read them and certify those
properties for any decomposition, not just ones this module built.
``verify_cover`` is the one triangulation certificate, exact in every
dimension: facet gluing (``verify_regular_position``) plus the equation
of the simplex volumes with the hull volume from the independent
facet-enumeration oracle; together they prove (a) and that every two
simplices meet in a common face.  ``verify_adjacency_chain`` checks (c)
through the shared-facet graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial

from .geometry import PointSet, _exact_int, affine_basis, intrinsic_integer_coords
from .hull import cross_normal, hull_volume, int_det


@dataclass(frozen=True)
class Simplex:
    """Vertex indices (into the ground set) of one simplex, sorted."""

    vertex_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(_exact_int(i, "vertex index") for i in self.vertex_indices))
        if len(set(idx)) != len(idx):
            raise ValueError("simplex has repeated vertex indices")
        object.__setattr__(self, "vertex_indices", idx)


@dataclass(frozen=True)
class Decomposition:
    """An ordered list of simplices over a ground point set.

    ``adjacency`` holds index pairs (i < j) of simplices sharing a
    facet, i.e. sharing exactly dim-many vertices, where dim is the
    intrinsic dimension of the hull.  It is recomputed when omitted and
    validated when supplied.
    """

    ground: PointSet
    simplices: tuple[Simplex, ...]
    adjacency: tuple[tuple[int, int], ...] = None

    def __post_init__(self):
        if len(self.ground) < 2:
            # the same rule as decompose: a point has no simplex to certify
            raise ValueError("decomposition needs at least 2 points")
        if len(self.simplices) == 0:
            raise ValueError("decomposition needs at least one simplex")
        simps = tuple(s if isinstance(s, Simplex) else Simplex(tuple(s)) for s in self.simplices)
        object.__setattr__(self, "simplices", simps)
        n = len(self.ground)
        coords, rank = self._frame
        seen = set()
        for s in simps:
            if s.vertex_indices in seen:
                raise ValueError("decomposition lists a simplex twice")
            seen.add(s.vertex_indices)
            if any(i < 0 or i >= n for i in s.vertex_indices):
                raise ValueError("simplex vertex index out of range")
            if len(s.vertex_indices) != rank + 1:
                raise ValueError("simplex does not span the hull dimension")
            if _edge_det(s.vertex_indices, coords) == 0:
                raise ValueError(f"simplex {s.vertex_indices} is degenerate")
        computed = tuple(sorted(
            pair
            for owners in self._facets.values()
            for pair in combinations([owner for owner, _ in owners], 2)
        ))
        if self.adjacency is None:
            object.__setattr__(self, "adjacency", computed)
        else:
            given = tuple(sorted(
                tuple(sorted((_exact_int(a, "adjacency index"), _exact_int(b, "adjacency index"))))
                for a, b in self.adjacency
            ))
            if given != computed:
                raise ValueError("adjacency inconsistent with shared-vertex counts")
            object.__setattr__(self, "adjacency", given)

    # Both are built once, on first use in __post_init__, and read by the
    # verifiers; not fields, so equality and serialization are unchanged.
    @cached_property
    def _frame(self) -> tuple[list[tuple[int, ...]], int]:
        """Integer coordinates of the ground points in their affine hull, and its dimension."""
        return intrinsic_integer_coords(self.ground.points)

    @cached_property
    def _facets(self) -> dict[tuple[int, ...], list[tuple[int, int]]]:
        return _facet_table([s.vertex_indices for s in self.simplices])

    @property
    def intrinsic_dim(self) -> int:
        return len(self.simplices[0].vertex_indices) - 1

    def simplex_points(self, i: int) -> PointSet:
        return PointSet(
            self.ground.dim,
            tuple(self.ground.points[j] for j in self.simplices[i].vertex_indices),
        )

    def to_json_dict(self) -> dict:
        return {
            "ground": [list(p) for p in self.ground.points],
            "simplices": [list(s.vertex_indices) for s in self.simplices],
            "adjacency": [list(pair) for pair in self.adjacency],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Decomposition":
        ground = PointSet.from_points(data["ground"])
        simplices = tuple(Simplex(tuple(s)) for s in data["simplices"])
        # Only a missing key means "compute it"; an explicit list, even an
        # empty one, is checked like any supplied adjacency.
        adjacency = tuple(tuple(p) for p in data["adjacency"]) if "adjacency" in data else None
        return cls(ground, simplices, adjacency)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _facet_table(simplices: list[tuple[int, ...]]) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Each facet (sorted vertex indices) -> its (owning simplex, opposite vertex) pairs.

    Facets appear in order of first occurrence: by simplex, then by the
    position of the omitted vertex.
    """
    table: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for owner, s in enumerate(simplices):
        for j in range(len(s)):
            table.setdefault(s[:j] + s[j + 1:], []).append((owner, s[j]))
    return table


def _hyperplane(face, coords) -> tuple[tuple[int, ...], int]:
    """Integer normal and offset of the hyperplane spanned by a facet."""
    normal = cross_normal([coords[i] for i in face])
    return normal, _dot(normal, coords[face[0]])


def _toggle_facets(boundary: dict, simplex: tuple[int, ...], coords) -> None:
    """Put a simplex's facets on the boundary, or take off those already there.

    A facet of a triangulation has at most two simplices, so what stays
    are the unshared facets in order of first occurrence, each with its
    hyperplane and the side of it its simplex lies on.
    """
    for j, apex in enumerate(simplex):
        face = simplex[:j] + simplex[j + 1:]
        if boundary.pop(face, None) is None:
            normal, offset = _hyperplane(face, coords)
            boundary[face] = normal, offset, _sign(_dot(normal, coords[apex]) - offset)


def _edge_det(simplex: tuple[int, ...], coords) -> int:
    """Determinant of a simplex's edge vectors: rank! times its signed volume."""
    base, *rest = (coords[i] for i in simplex)
    return int_det([[b - a for a, b in zip(base, p)] for p in rest])


def decompose(B: PointSet) -> Decomposition:
    """Simplicial decomposition of conv B in regular position.

    Deterministic: identical input point order yields an identical
    decomposition.  Works inside the intrinsic affine hull when B does
    not span its ambient space.
    """
    if len(B) < 2:
        raise ValueError("decomposition needs at least 2 points")
    order = sorted(range(len(B)), key=lambda i: B.points[i])
    placed = [B.points[i] for i in order]
    jumps = affine_basis(placed)
    simplices: list[tuple[int, ...]] = [()]
    # Each placed point is the lexicographic maximum so far, so a vertex
    # of the hull placed.  Between two rank jumps the points placed share
    # one affine hull, and the coordinates of its largest prefix decide
    # visibility for all of them.
    for start, end in zip(jumps, jumps[1:] + [len(order)]):
        simplices = [tuple(sorted(s + (order[start],))) for s in simplices]
        if end - start == 1:
            continue
        coords = dict(zip(order, intrinsic_integer_coords(placed[:end])[0]))
        boundary: dict = {}
        for s in simplices:
            _toggle_facets(boundary, s, coords)
        for b in order[start + 1:end]:
            apex = coords[b]
            # A facet whose hyperplane holds the apex is not visible: its
            # points see the apex along segments inside the hull.
            visible = [
                face for face, (normal, offset, inner) in boundary.items()
                if _sign(_dot(normal, apex) - offset) == -inner
            ]
            for face in visible:
                simplices.append(tuple(sorted(face + (b,))))
                _toggle_facets(boundary, simplices[-1], coords)
    return Decomposition(B, tuple(Simplex(t) for t in simplices))


@dataclass(frozen=True)
class RegularPositionReport:
    """Outcome of the facet-gluing check.

    On failure ``face`` holds the ground indices of the offending facet
    and ``simplices`` the simplices having it; ``beyond`` is a ground
    point strictly outside an unshared facet, when that is the fault.
    """

    passed: bool
    face: tuple[int, ...] | None = None
    simplices: tuple[int, ...] = ()
    beyond: int | None = None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "face": list(self.face) if self.face is not None else None,
            "simplices": list(self.simplices),
            "beyond": self.beyond,
        }


def verify_regular_position(D: Decomposition) -> RegularPositionReport:
    """Facet gluing, the combinatorial half of the ``verify_cover`` certificate.

    Every facet of every simplex must either span a supporting
    hyperplane of conv(ground), with no ground point strictly beyond
    it, or be a facet of exactly one other simplex whose remaining
    vertex lies strictly on the other side.  Gluing alone does not prove
    regular position (two overlaid triangulations pass it); together
    with the volume equation of ``verify_cover`` it proves that every
    pair of simplices meets in a common face.
    """
    coords, _ = D._frame
    for face, owners in D._facets.items():
        normal, offset = _hyperplane(face, coords)
        sides = [_sign(_dot(normal, coords[apex]) - offset) for _, apex in owners]
        holders = tuple(owner for owner, _ in owners)
        if len(owners) == 1:
            beyond = next(
                (i for i, p in enumerate(coords) if _sign(_dot(normal, p) - offset) == -sides[0]),
                None,
            )
            if beyond is not None:
                return RegularPositionReport(False, face, holders, beyond)
        elif len(owners) > 2 or sides[0] == sides[1]:
            return RegularPositionReport(False, face, holders)
    return RegularPositionReport(True)


@dataclass(frozen=True)
class CoverReport:
    passed: bool
    total_simplex_volume: Fraction
    hull_volume: Fraction
    gluing: RegularPositionReport

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "total_simplex_volume": str(self.total_simplex_volume),
            "hull_volume": str(self.hull_volume),
            "gluing": self.gluing.to_dict(),
        }


def verify_cover(D: Decomposition) -> CoverReport:
    """Exact certificate that the simplices triangulate conv(ground).

    Two conditions, decided in integer coordinates of the hull's affine
    span, where every simplex is full-dimensional (De Loera, Rambau &
    Santos, *Triangulations*, Springer 2010, ch. 4):

    1. gluing (``verify_regular_position``): every facet either spans a
       supporting hyperplane of H = conv(ground) or is a facet of exactly
       one other simplex lying on its other side;
    2. volume: the simplex volumes sum to vol H, taken from the
       independent facet-fan oracle ``hull_volume``.

    ``passed`` holds exactly when the simplices cover H and every two
    of them meet in a common face (possibly empty).

    Proof (degree argument).  Let c(x) count the simplices containing
    x.  Along a path in the interior of H that crosses facets only
    transversally, in their relative interiors (almost every path), c
    changes only at a facet hyperplane, by the number of simplices
    entered minus the number left.  A supporting hyperplane of H misses
    the interior of H, so by 1 every facet crossed there is shared by
    exactly two simplices on opposite sides, one left as the other is
    entered: c is a constant c0 almost everywhere on H.  Then the volume
    sum is c0 * vol H, and 2 gives c0 = 1.  So the simplices have
    pairwise disjoint interiors and, their union being closed, cover H.
    They meet face to face: if x lies in simplices S and T, let F be the
    smallest face of S containing x.  Crossing a facet of S through x
    enters, by 1, the simplex glued there, in which F is again the
    smallest face containing x; around x these crossings reach every
    simplex containing x (the same path argument, interiors being
    disjoint), T among them, so F is a face of T and x lies in the hull
    of the common vertices.  Conversely a triangulation satisfies both
    conditions, so the certificate is exact in every dimension.
    """
    coords, rank = D._frame
    dets = sum(abs(_edge_det(s.vertex_indices, coords)) for s in D.simplices)
    total = Fraction(dets, factorial(rank))
    hull_vol = hull_volume(coords)
    gluing = verify_regular_position(D)
    return CoverReport(gluing.passed and total == hull_vol, total, hull_vol, gluing)


@dataclass(frozen=True)
class AdjacencyReport:
    passed: bool
    connected: bool
    order_ok: bool
    suggested_order: tuple[int, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "connected": self.connected,
            "order_ok": self.order_ok,
            "suggested_order": list(self.suggested_order) if self.suggested_order else None,
        }


def verify_adjacency_chain(D: Decomposition) -> AdjacencyReport:
    """Check the shared-facet graph is connected and the order is chained.

    The stored order is chained when every simplex after the first
    shares a facet with some earlier one.  If the graph is connected but
    the order is wrong, a breadth-first order witnessing chainability is
    returned.
    """
    n = len(D.simplices)
    neighbors: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in D.adjacency:
        neighbors[i].append(j)
        neighbors[j].append(i)
    for i in neighbors:
        neighbors[i].sort()

    seen = {0}
    queue = [0]
    bfs_order = [0]
    while queue:
        cur = queue.pop(0)
        for nb in neighbors[cur]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
                bfs_order.append(nb)
    connected = len(seen) == n
    order_ok = all(any(j < i for j in neighbors[i]) for i in range(1, n))
    suggested = None
    if connected and not order_ok:
        suggested = tuple(bfs_order)
    return AdjacencyReport(connected and order_ok, connected, order_ok, suggested)
