"""Brute-force hull machinery: facets, volumes, lattice enumeration."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from sumsethull import hull
from sumsethull.geometry import PointSet, affine_rank, conv_contains, vertex_set
from sumsethull.hull import (
    cross_normal,
    hull_facets,
    hull_volume,
    int_det,
    lattice_points,
    simplex_volume,
)

from conftest import point_sets, proper_point_sets
from echelon_oracle import det as fraction_det


class TestIntDet:
    def test_identity(self):
        assert int_det([[1, 0], [0, 1]]) == 1

    def test_singular(self):
        assert int_det([[1, 2], [2, 4]]) == 0

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=80)
    def test_matches_fraction_elimination(self, mat):
        assert int_det([row[:] for row in mat]) == fraction_det(mat)


class TestCrossNormal:
    def test_orthogonal_to_spanned_differences(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        n = cross_normal(pts)
        assert n is not None
        for p in pts[1:]:
            assert sum(a * (b - c) for a, b, c in zip(n, p, pts[0])) == 0

    def test_degenerate_returns_none(self):
        assert cross_normal([(0, 0), (0, 0)]) is None


class TestHullFacets:
    def test_triangle_has_three_edges(self):
        facets = hull_facets([(0, 0), (2, 0), (0, 2)])
        assert len(facets) == 3

    def test_square_has_four_edges_despite_diagonals(self):
        facets = hull_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert len(facets) == 4

    def test_interior_point_on_no_facet(self):
        facets = hull_facets([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
        assert len(facets) == 4
        for f in facets:
            assert 4 not in f.support

    @given(proper_point_sets(coord=3))
    @settings(max_examples=30, deadline=None)
    def test_all_points_on_nonpositive_side(self, P):
        for f in hull_facets(list(P.points)):
            assert gcd(*[abs(v) for v in f.normal]) in (0, 1) or len(f.normal) == 1
            for p in P.points:
                assert sum(a * b for a, b in zip(f.normal, p)) <= f.offset


class TestVolumes:
    def test_unit_square(self):
        assert hull_volume([(0, 0), (1, 0), (0, 1), (1, 1)]) == 1

    def test_side_two_square_with_center(self):
        assert hull_volume([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]) == 4

    def test_standard_simplex_3d(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert simplex_volume(pts) == Fraction(1, 6)
        assert hull_volume(pts) == Fraction(1, 6)

    def test_segment_length(self):
        assert hull_volume([(2,), (7,), (4,)]) == 5

    @given(proper_point_sets(dim=2, coord=4))
    @settings(max_examples=40, deadline=None)
    def test_picks_theorem_agreement(self, P):
        """Independent 2-d oracle: area = interior + boundary/2 - 1."""
        area = hull_volume(list(P.points))
        grid = lattice_points(P)
        V = vertex_set(P)
        boundary = 0
        facets = hull_facets(list(P.points))
        for q in grid:
            on_edge = any(
                sum(a * b for a, b in zip(f.normal, q)) == f.offset for f in facets
            )
            boundary += on_edge
        interior = len(grid) - boundary
        assert area == interior + Fraction(boundary, 2) - 1
        assert len(V) <= boundary


def box_scan(P):
    """Independent lattice oracle: every box cell that passes every facet, in box order."""
    facets = hull_facets(list(P.points))
    box = [range(min(p[c] for p in P.points), max(p[c] for p in P.points) + 1) for c in range(P.dim)]
    return [
        q for q in product(*box)
        if all(sum(a * b for a, b in zip(f.normal, q)) <= f.offset for f in facets)
    ]


@st.composite
def thin_point_sets(draw, dim):
    """Proper sets whose last coordinate takes only the values 0 and 1."""
    lead = st.tuples(*[st.integers(-4, 4)] * (dim - 1))
    pts = draw(st.lists(
        st.builds(lambda q, t: q + (t,), lead, st.integers(0, 1)),
        min_size=dim + 1, max_size=dim + 4, unique=True,
    ))
    assume(affine_rank(pts) == dim)
    return PointSet(dim, tuple(pts))


class TestScanline:
    """The scanline enumeration against the box scan, list for list."""

    @pytest.mark.parametrize("pts", [
        [(0, 0), (3, 0), (0, 2), (3, 2)],  # vertical edges: last normal component 0
        [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (0, 0, 3), (2, 0, 3), (0, 2, 3), (2, 2, 3)],
        [(0, 0), (9, 1), (4, 0)],  # a sliver one unit thick in the last coordinate
        [(0, 0, 0), (7, 2, 1), (3, 5, 0), (6, 0, 1)],
        [(-3,), (4,)],
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (2, 2, 2, 1)],
    ])
    def test_examples(self, pts):
        P = PointSet.from_points(pts)
        assert lattice_points(P) == box_scan(P)

    @given(st.integers(1, 4).flatmap(lambda d: proper_point_sets(dim=d, max_size=d + 3)))
    @settings(max_examples=60, deadline=None)
    def test_matches_box_scan(self, P):
        assert lattice_points(P) == box_scan(P)

    @given(st.integers(2, 4).flatmap(thin_point_sets))
    @settings(max_examples=40, deadline=None)
    def test_thin_in_last_coordinate(self, P):
        assert lattice_points(P) == box_scan(P)

    def test_large_box_refused_before_facets(self, monkeypatch):
        def no_facets(coords):
            raise AssertionError("facets computed for a refused box")

        monkeypatch.setattr(hull, "hull_facets", no_facets)
        side = 5000  # 5001^2 cells, over the limit
        assert (side + 1) ** 2 > hull._BOX_CELL_LIMIT
        P = PointSet.from_points([(0, 0), (side, 0), (0, side)])
        with pytest.raises(ValueError, match="^bounding box too large for exhaustive lattice enumeration$"):
            lattice_points(P)


class TestLatticePoints:
    def test_side_two_square(self):
        P = PointSet.from_points([(0, 0), (2, 0), (0, 2), (2, 2)])
        assert len(lattice_points(P)) == 9

    def test_triangle_count(self):
        P = PointSet.from_points([(0, 0), (3, 0), (0, 3)])
        assert len(lattice_points(P)) == 10

    def test_segment(self):
        P = PointSet.from_points([(-2,), (2,)])
        assert lattice_points(P) == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            lattice_points(PointSet.from_points([(0, 0), (1, 1)]))

    @given(proper_point_sets(coord=3))
    @settings(max_examples=25, deadline=None)
    def test_matches_exact_membership(self, P):
        """Facet sign filtering agrees with the rational feasibility test."""
        grid = set(lattice_points(P))
        lo = [min(p[c] for p in P.points) for c in range(P.dim)]
        hi = [max(p[c] for p in P.points) for c in range(P.dim)]

        def cells(prefix):
            if len(prefix) == P.dim:
                yield tuple(prefix)
                return
            c = len(prefix)
            for v in range(lo[c], hi[c] + 1):
                yield from cells(prefix + [v])

        for q in cells([]):
            assert (q in grid) == conv_contains(P, q)

    @given(point_sets(min_size=2, max_size=6, coord=3))
    @settings(max_examples=30, deadline=None)
    def test_input_points_always_enumerated(self, P):
        from sumsethull.geometry import affine_rank

        if affine_rank(P.points) != P.dim:
            return
        grid = lattice_points(P)
        assert set(P.points) <= set(grid)
        assert grid == sorted(grid)
