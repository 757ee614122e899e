"""Exact affine geometry: dimension, hull membership, vertices, coordinates."""

from fractions import Fraction
from math import lcm

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from sumsethull.geometry import (
    PointSet,
    affine_basis,
    affine_dimension,
    affine_rank,
    barycentric,
    conv_contains,
    intrinsic_integer_coords,
    vertex_set,
)

from conftest import lattice_point, point_sets, proper_point_sets, simplices
from pairwise_oracle import solve_unique


class TestPointSet:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate point"):
            PointSet(2, ((0, 0), (1, 1), (0, 0)))

    def test_dimension_must_be_positive(self):
        with pytest.raises(ValueError):
            PointSet(0, ((),))

    def test_uniform_length_enforced(self):
        with pytest.raises(ValueError):
            PointSet(2, ((0, 0), (1, 1, 1)))

    @pytest.mark.parametrize("coord", [1.5, 2.0, Fraction(3, 2), Fraction(2), True, False])
    def test_non_integer_coordinate_rejected(self, coord):
        # int() used to truncate these silently: (1.5, 0.7) became (1, 0)
        with pytest.raises(ValueError, match=r"point \(.*\) has a coordinate that is not an integer"):
            PointSet(2, ((0, 0), (coord, 0)))
        with pytest.raises(ValueError, match="not an integer"):
            PointSet.from_points([(0, coord)])

    def test_points_are_plain_int_tuples(self):
        P = PointSet(2, [[0, 1], (2, 3)])
        assert P.points == ((0, 1), (2, 3))
        assert all(type(p) is tuple for p in P.points)
        kept = ((0, 1), (2, 3))
        assert PointSet(2, kept).points is kept

    def test_first_duplicate_is_named(self):
        with pytest.raises(ValueError, match=r"duplicate point \(1, 1\)"):
            PointSet(2, ((1, 1), (0, 0), (1, 1), (0, 0)))

    def test_translate(self):
        P = PointSet(2, ((0, 0), (1, 2)))
        assert P.translate((3, -1)).points == ((3, -1), (4, 1))

    def test_membership_cache_leaves_identity_unchanged(self):
        P, Q = PointSet(2, ((0, 0), (1, 2))), PointSet(2, ((0, 0), (1, 2)))
        before = (hash(P), repr(P), dataclasses.asdict(P))
        assert [1, 2] in P and (0, 0) in P and (2, 1) not in P
        assert "_members" in vars(P)  # built once, on the first test
        assert (hash(P), repr(P), dataclasses.asdict(P)) == before
        assert P == Q and hash(P) == hash(Q)


class TestAffineDimension:
    def test_standard_simplex_spans_plane(self):
        assert affine_dimension(PointSet.from_points([(0, 0), (1, 0), (0, 1)])) == 2

    def test_single_point(self):
        assert affine_dimension(PointSet.from_points([(5, 7)])) == 0

    def test_collinear_points(self):
        assert affine_dimension(PointSet.from_points([(0, 0, 0), (1, 1, 1), (2, 2, 2)])) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty point set"):
            affine_dimension(PointSet(2, ()))

    @given(point_sets(), lattice_point(3, 5), st.permutations(range(6)))
    def test_translation_and_permutation_invariance(self, P, t, perm):
        shifted = P.translate(t[: P.dim])
        assert affine_dimension(shifted) == affine_dimension(P)
        order = [i for i in perm if i < len(P)]
        shuffled = PointSet(P.dim, tuple(P.points[i] for i in order) or P.points)
        if len(shuffled) == len(P):
            assert affine_dimension(shuffled) == affine_dimension(P)


class TestConvContains:
    SQUARE = PointSet.from_points([(0, 0), (2, 0), (0, 2), (2, 2)])

    def test_centroid_inside(self):
        assert conv_contains(self.SQUARE, (1, 1))

    def test_outside_bounding_box(self):
        assert not conv_contains(self.SQUARE, (3, 0))

    def test_edge_midpoint_inside(self):
        assert conv_contains(self.SQUARE, (1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conv_contains(self.SQUARE, (1, 1, 1))

    @given(point_sets(max_size=5, coord=3))
    @settings(max_examples=50)
    def test_members_always_contained(self, P):
        for p in P.points:
            assert conv_contains(P, p)

    @given(point_sets(dim=2, max_size=5, coord=2))
    @settings(max_examples=25)
    def test_caratheodory_consistency(self, P):
        """Membership is unchanged by restriction to the vertex set."""
        V = vertex_set(P)
        lo = [min(p[c] for p in P.points) - 1 for c in range(2)]
        hi = [max(p[c] for p in P.points) + 1 for c in range(2)]
        for x in range(lo[0], hi[0] + 1):
            for y in range(lo[1], hi[1] + 1):
                assert conv_contains(P, (x, y)) == conv_contains(V, (x, y))


class TestVertexSet:
    def test_center_dropped(self):
        P = PointSet.from_points([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
        assert vertex_set(P).points == ((0, 0), (2, 0), (0, 2), (2, 2))

    def test_affinely_independent_set_kept_whole(self):
        P = PointSet.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert vertex_set(P) == P

    def test_midpoint_dropped_in_1d(self):
        P = PointSet.from_points([(0,), (1,), (2,)])
        assert vertex_set(P).points == ((0,), (2,))

    @given(point_sets(max_size=6, coord=3))
    @settings(max_examples=50)
    def test_idempotent(self, P):
        V = vertex_set(P)
        assert vertex_set(V) == V

    @given(proper_point_sets())
    @settings(max_examples=40)
    def test_proper_set_has_at_least_dim_plus_one_vertices(self, P):
        assert len(vertex_set(P)) >= P.dim + 1
        assert affine_dimension(P) == P.dim


class TestBarycentric:
    TRI = PointSet.from_points([(0, 0), (3, 0), (0, 3)])

    def test_centroid_coefficients(self):
        coords = barycentric(self.TRI, (1, 1))
        assert coords.coeffs == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

    def test_vertex_coefficients(self):
        coords = barycentric(self.TRI, (3, 0))
        assert coords.coeffs == (0, 1, 0)

    def test_outside_returns_none(self):
        assert barycentric(self.TRI, (2, 2)) is None

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(ValueError, match="degenerate simplex"):
            barycentric(PointSet.from_points([(0, 0), (1, 1), (2, 2)]), (0, 0))

    @given(simplices(coord=3), st.data())
    @settings(max_examples=50)
    def test_round_trip(self, S, data):
        """When coordinates exist, the weighted vertex sum reproduces q."""
        d = S.dim
        q = data.draw(lattice_point(d, 4))
        coords = barycentric(S, q)
        if coords is None:
            return
        for c in range(d):
            total = sum(w * p[c] for w, p in zip(coords.coeffs, S.points))
            assert total == q[c]


class TestAffineBasis:
    def test_greedy_choice_in_order(self):
        pts = [(0, 0), (1, 1), (2, 2), (0, 1), (5, 5)]
        assert affine_basis(pts) == [0, 1, 3]

    def test_single_point(self):
        assert affine_basis([(4, 2)]) == [0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty point set"):
            affine_basis([])

    @given(point_sets(max_size=7, coord=2))
    @settings(max_examples=50)
    def test_members_are_the_prefix_rank_jumps(self, P):
        pts = P.points
        jumps = [i for i in range(1, len(pts)) if affine_rank(pts[: i + 1]) > affine_rank(pts[:i])]
        assert affine_basis(pts) == [0] + jumps


@st.composite
def flat_point_sets(draw, max_size=6, coord=3):
    """Points of Z^d lifted from a lower-dimensional grid, so they span a proper flat."""
    d = draw(st.integers(2, 4))
    r = draw(st.integers(1, d - 1))
    lift = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=d, max_size=d))
    grid = draw(st.lists(lattice_point(r, coord), min_size=r + 2, max_size=max_size, unique=True))
    pts = dict.fromkeys(tuple(sum(a * b for a, b in zip(row, x)) for row in lift) for x in grid)
    return PointSet(d, tuple(pts))


class TestIntrinsicCoords:
    def test_full_rank_is_identity(self):
        pts = [(0, 0), (1, 0), (0, 1)]
        coords, rank = intrinsic_integer_coords(pts)
        assert rank == 2
        assert coords == pts

    def test_collinear_points_get_1d_coords(self):
        pts = [(0, 0), (1, 1), (3, 3)]
        coords, rank = intrinsic_integer_coords(pts)
        assert rank == 1
        assert [c[0] for c in coords] == [0, 1, 3]

    @given(st.one_of(point_sets(max_size=6, coord=3), flat_point_sets()))
    @settings(max_examples=100)
    def test_rank_and_incidence_preserved(self, P):
        coords, rank = intrinsic_integer_coords(P.points)
        assert rank == affine_rank(P.points)
        assert affine_rank(coords) == rank
        if rank == P.dim:
            assert coords == list(P.points)
            return
        # each image is p - p0 solved in the affine basis, times one common scale
        p0, basis = P.points[0], affine_basis(P.points)[1:]
        rows = [[P.points[j][c] - p0[c] for j in basis] for c in range(P.dim)]
        gammas = [solve_unique(rows, [a - b for a, b in zip(p, p0)]) for p in P.points]
        scale = lcm(*(c.denominator for g in gammas for c in g))
        assert coords == [tuple(c * scale for c in g) for g in gammas]
