"""Exact affine geometry: dimension, hull membership, vertices, coordinates."""

from fractions import Fraction
from math import lcm

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from sumsethull import geometry
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
from sumsethull.hull import int_det

import echelon_oracle
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

    def test_computed_once_per_set(self, monkeypatch):
        calls = []
        monkeypatch.setattr(geometry, "affine_rank", lambda pts: calls.append(pts) or 2)
        P = PointSet.from_points([(0, 0), (1, 0), (0, 1)])
        before = (hash(P), repr(P), dataclasses.asdict(P))
        assert affine_dimension(P) == affine_dimension(P) == 2
        assert calls == [P.points]
        assert (hash(P), repr(P), dataclasses.asdict(P)) == before

    @given(point_sets(), lattice_point(3, 5), st.permutations(range(6)))
    def test_translation_and_permutation_invariance(self, P, t, perm):
        shifted = PointSet(P.dim, tuple(tuple(c + s for c, s in zip(p, t)) for p in P.points))
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


BIG = 10**40
# small values, and values near +-10^40
oracle_coords = st.one_of(
    st.integers(-3, 3), st.integers(-3, 3).map(lambda v: BIG + v), st.integers(-3, 3).map(lambda v: v - BIG)
)


@st.composite
def flat_point_lists(draw, min_size=1, max_size=8):
    """min_size to max_size points of Z^d, d <= 4, on a flat of dimension r <= d; repeats allowed.

    r = 0 repeats one point, r = 1 is collinear, r < d is lower-dimensional.
    """
    d = draw(st.integers(1, 4))
    r = draw(st.integers(0, d))
    origin = draw(st.tuples(*[oracle_coords] * d))
    dirs = draw(st.lists(st.tuples(*[oracle_coords] * d), min_size=r, max_size=r))
    weights = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=min_size, max_size=max_size))
    return [tuple(o + sum(w * v[c] for w, v in zip(ws, dirs)) for c, o in enumerate(origin)) for ws in weights]


class TestMatchesFractionOracle:
    """The fraction-free elimination against Gauss–Jordan over Fraction."""

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(1), 0.5, 1.0])
    def test_non_integer_entries_refused(self, bad):
        # floor division would silently truncate them
        with pytest.raises(ValueError, match="is not an integer"):
            affine_basis([(0, 0), (bad, 1)])
        with pytest.raises(ValueError, match="is not an integer"):
            int_det([[1, 0], [0, bad]])
        with pytest.raises(ValueError, match="is not an integer"):
            barycentric(PointSet.from_points([(0, 0), (1, 0), (0, 1)]), (bad, 0))

    @given(flat_point_lists())
    @settings(max_examples=200)
    def test_affine_basis_and_intrinsic_coords(self, pts):
        assert affine_basis(pts) == echelon_oracle.affine_basis(pts)
        assert intrinsic_integer_coords(pts) == echelon_oracle.intrinsic_integer_coords(pts)

    @given(st.one_of(
        flat_point_lists(min_size=4, max_size=4).map(lambda pts: [list(p) for p in pts[: len(pts[0])]]),
        # frequent zeros force row swaps
        st.integers(1, 4).flatmap(lambda n: st.lists(
            st.lists(st.one_of(st.just(0), oracle_coords), min_size=n, max_size=n), min_size=n, max_size=n
        )),
    ))
    @settings(max_examples=200)
    def test_int_det(self, mat):
        assert int_det(mat) == echelon_oracle.det(mat)

    @given(flat_point_lists(max_size=5), st.data())
    @settings(max_examples=200)
    def test_barycentric(self, pts, data):
        S = PointSet(len(pts[0]), tuple(dict.fromkeys(pts)))
        q = data.draw(st.one_of(st.sampled_from(pts), st.tuples(*[oracle_coords] * S.dim)))
        if echelon_oracle.affine_rank(S.points) < len(S) - 1:
            with pytest.raises(ValueError, match="degenerate simplex"):
                barycentric(S, q)
            return
        coords = barycentric(S, q)
        expected = echelon_oracle.barycentric(S.points, q)
        assert (None if coords is None else coords.coeffs) == expected
