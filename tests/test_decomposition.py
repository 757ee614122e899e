"""Simplicial decomposition: construction and the three verifiers."""

import json
import random
import re
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings

from sumsethull import decomposition
from sumsethull.decomposition import (
    Decomposition,
    RegularPositionReport,
    Simplex,
    _facet_table,
    _toggle_facets,
    decompose,
    verify_adjacency_chain,
    verify_cover,
    verify_regular_position,
)
from sumsethull.geometry import PointSet, affine_rank, barycentric

from conftest import proper_point_sets

SQUARE = PointSet.from_points([(0, 0), (1, 0), (0, 1), (1, 1)])
FAN_GROUND = PointSet.from_points([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
TRI = PointSet.from_points([(0, 0), (2, 0), (0, 2)])


def property_b_holds(D):
    """Every ground point inside a simplex is one of its vertices."""
    for i in range(len(D.simplices)):
        S = D.simplex_points(i)
        for p in D.ground.points:
            if barycentric(S, p) is not None and p not in S.points:
                return False
    return True


class TestDecompose:
    def test_triangle_is_single_simplex(self):
        D = decompose(PointSet.from_points([(0, 0), (1, 0), (0, 1)]))
        assert [s.vertex_indices for s in D.simplices] == [(0, 1, 2)]

    def test_square_splits_into_two_triangles_on_a_diagonal(self):
        D = decompose(SQUARE)
        assert len(D.simplices) == 2
        shared = set(D.simplices[0].vertex_indices) & set(D.simplices[1].vertex_indices)
        assert len(shared) == 2
        assert D.adjacency == ((0, 1),)

    def test_square_plus_center_fans_around_center(self):
        D = decompose(FAN_GROUND)
        assert len(D.simplices) == 4
        got = {s.vertex_indices for s in D.simplices}
        assert got == {(0, 2, 4), (0, 1, 4), (2, 3, 4), (1, 3, 4)}
        assert property_b_holds(D)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            decompose(PointSet.from_points([(0, 0)]))

    def test_collinear_points_chain(self):
        D = decompose(PointSet.from_points([(0, 0), (2, 2), (1, 1), (3, 3)]))
        assert all(len(s.vertex_indices) == 2 for s in D.simplices)
        assert len(D.simplices) == 3

    def test_rank_drop_cones_apex_over_segments(self):
        D = decompose(PointSet.from_points([(0, 0), (1, 0), (2, 0), (3, 5)]))
        assert sorted(s.vertex_indices for s in D.simplices) == [(0, 1, 3), (1, 2, 3)]

    def test_apex_beyond_an_edge_cones_over_it(self):
        D = decompose(PointSet.from_points(list(TRI.points) + [(3, 3)]))
        assert [s.vertex_indices for s in D.simplices] == [(0, 1, 2), (1, 2, 3)]
        assert verify_cover(D).passed

    def test_apex_on_edge_hyperplane_is_not_coned_over_that_edge(self):
        """(3,-1) lies on the line x+y=2, so only the bottom edge is seen.

        Coning over the edge on x+y=2 as well would add a degenerate
        triangle.
        """
        D = decompose(PointSet.from_points(list(TRI.points) + [(3, -1)]))
        assert [s.vertex_indices for s in D.simplices] == [(0, 1, 2), (0, 1, 3)]
        assert verify_cover(D).passed

    def test_deterministic(self):
        a = decompose(FAN_GROUND).to_json_dict()
        b = decompose(FAN_GROUND).to_json_dict()
        assert a == b

    def test_facet_table_built_once_per_rank_segment(self, monkeypatch):
        # The boundary is kept between placements: at most one facet table
        # per rank segment (here the points 0 and 1..1099) and one in
        # Decomposition, and each simplex's facets go on the boundary once.
        tables, toggled = [], []

        def counting_table(simplices):
            tables.append(len(simplices))
            return _facet_table(simplices)

        def counting_toggle(boundary, simplex, coords):
            toggled.append(simplex)
            return _toggle_facets(boundary, simplex, coords)

        monkeypatch.setattr(decomposition, "_facet_table", counting_table)
        monkeypatch.setattr(decomposition, "_toggle_facets", counting_toggle)
        D = decompose(PointSet.from_points([(x,) for x in range(1100)]))
        assert len(D.simplices) == 1099
        assert len(tables) <= 3
        assert len(toggled) == len(D.simplices)

    def test_more_points_than_the_recursion_limit(self):
        # The build places points in a loop, so its depth does not grow
        # with the ground set; 1100 collinear points give 1099 segments.
        D = decompose(PointSet.from_points([(x,) for x in range(1100)]))
        assert len(D.simplices) == 1099
        assert verify_cover(D).passed
        assert verify_adjacency_chain(D).passed


class TestDecompositionType:
    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Decomposition(TRI, (Simplex((0, 1, 7)),))

    def test_degenerate_simplex_rejected(self):
        ground = PointSet.from_points([(0, 0), (1, 1), (2, 2), (0, 1)])
        with pytest.raises(ValueError, match="degenerate"):
            Decomposition(ground, (Simplex((0, 1, 2)),))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="span"):
            Decomposition(SQUARE, (Simplex((0, 1)),))

    def test_duplicate_simplex_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            Decomposition(SQUARE, (Simplex((0, 1, 2)), Simplex((0, 1, 2))))

    def test_inconsistent_adjacency_rejected(self):
        with pytest.raises(ValueError, match="adjacency"):
            Decomposition(SQUARE, (Simplex((0, 1, 2)), Simplex((1, 2, 3))), ())

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            Simplex((0, 1, 1))

    def test_one_point_ground_rejected(self):
        # rank 0: verify_cover used to fail with IndexError in cross_normal
        with pytest.raises(ValueError, match="at least 2 points"):
            Decomposition(PointSet(2, ((0, 0),)), (Simplex((0,)),))

    @pytest.mark.parametrize("bad", [1.7, 2.0, Fraction(3, 2), Fraction(1), True, False])
    def test_non_integer_vertex_index_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"vertex index {bad!r} is not an integer")):
            Simplex((0, bad, 2))

    def test_non_integer_index_in_json_rejected(self):
        with pytest.raises(ValueError, match="vertex index 1.9 is not an integer"):
            Decomposition.from_json_dict({"ground": [[0, 0], [2, 0], [0, 2]], "simplices": [[0, 1.9, 2]]})

    @pytest.mark.parametrize("bad", [0.5, Fraction(1), True])
    def test_non_integer_adjacency_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"adjacency index {bad!r} is not an integer")):
            Decomposition(SQUARE, (Simplex((0, 1, 2)), Simplex((1, 2, 3))), ((bad, 1),))

    def test_explicit_empty_adjacency_in_json_is_checked(self):
        data = {"ground": [[0, 0], [1, 0], [0, 1], [1, 1]], "simplices": [[0, 1, 2], [1, 2, 3]], "adjacency": []}
        with pytest.raises(ValueError, match="adjacency inconsistent with shared-vertex counts"):
            Decomposition.from_json_dict(data)

    def test_one_simplex_with_empty_adjacency_in_json_loads(self):
        D = Decomposition.from_json_dict({"ground": [[0, 0], [2, 0], [0, 2]], "simplices": [[0, 1, 2]], "adjacency": []})
        assert D.adjacency == ()

    def test_json_round_trip(self):
        D = decompose(FAN_GROUND)
        assert Decomposition.from_json_dict(D.to_json_dict()) == D


class TestVerifyCover:
    def test_two_triangle_square(self):
        rep = verify_cover(decompose(SQUARE))
        assert rep.passed and rep.total_simplex_volume == 1 and rep.hull_volume == 1

    def test_missing_triangle_fails(self):
        rep = verify_cover(Decomposition(SQUARE, (Simplex((0, 1, 2)),)))
        assert not rep.passed
        assert rep.total_simplex_volume == Fraction(1, 2)
        assert rep.hull_volume == 1

    def test_missing_triangle_names_the_open_facet(self):
        rep = verify_cover(Decomposition(SQUARE, (Simplex((0, 1, 2)),)))
        assert rep.gluing == RegularPositionReport(False, (1, 2), (0,), 3)

    def test_fan_has_four_unit_triangles(self):
        rep = verify_cover(decompose(FAN_GROUND))
        assert rep.passed and rep.total_simplex_volume == 4

    def test_segment_cover(self):
        D = decompose(PointSet.from_points([(0, 0), (2, 2), (1, 1), (3, 3)]))
        rep = verify_cover(D)
        assert rep.passed and rep.total_simplex_volume == rep.hull_volume == 3

    def test_report_serializes(self):
        data = verify_cover(Decomposition(SQUARE, (Simplex((0, 1, 2)),))).to_dict()
        assert data == {
            "passed": False,
            "total_simplex_volume": "1/2",
            "hull_volume": "1",
            "gluing": {"passed": False, "face": [1, 2], "simplices": [0], "beyond": 3},
        }


class TestVerifyRegularPosition:
    def test_shared_edge_passes(self):
        assert verify_regular_position(decompose(SQUARE)).passed

    def test_two_simplices_on_one_side_of_a_facet(self):
        ground = PointSet.from_points([(0, 0), (4, 0), (0, 4), (1, 1)])
        D = Decomposition(ground, (Simplex((0, 1, 2)), Simplex((0, 1, 3))))
        assert verify_regular_position(D) == RegularPositionReport(False, (0, 1), (0, 1))

    def test_facet_of_three_simplices(self):
        # 1-2 is an edge of one triangle above it and two below it
        ground = PointSet.from_points([(1, 2), (0, 0), (2, 0), (1, -1), (1, -2)])
        D = Decomposition(ground, (Simplex((0, 1, 2)), Simplex((1, 2, 3)), Simplex((1, 2, 4))))
        rep = verify_regular_position(D)
        assert not rep.passed and rep.face == (1, 2) and rep.simplices == (0, 1, 2)

    def test_partial_shared_face_violation_detected(self):
        # second triangle's edge crosses the first one's interior
        ground = PointSet.from_points([(0, 0), (4, 0), (0, 4), (4, 4), (1, 1)])
        D = Decomposition(ground, (Simplex((0, 1, 2)), Simplex((1, 3, 4))))
        rep = verify_regular_position(D)
        assert not rep.passed


class TestVerifyAdjacencyChain:
    def test_two_triangle_square_passes(self):
        rep = verify_adjacency_chain(decompose(SQUARE))
        assert rep.passed and rep.connected and rep.order_ok

    def test_disjoint_simplices_disconnected(self):
        ground = PointSet.from_points([(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)])
        D = Decomposition(ground, (Simplex((0, 1, 2)), Simplex((3, 4, 5))))
        rep = verify_adjacency_chain(D)
        assert not rep.passed and not rep.connected
        assert rep.suggested_order is None

    def test_rotational_fan_order_passes(self):
        D = Decomposition(
            FAN_GROUND,
            (Simplex((0, 1, 4)), Simplex((1, 3, 4)), Simplex((2, 3, 4)), Simplex((0, 2, 4))),
        )
        rep = verify_adjacency_chain(D)
        assert rep.passed

    def test_scrambled_order_suggests_reordering(self):
        base = decompose(FAN_GROUND)
        scrambled = Decomposition(
            FAN_GROUND,
            (base.simplices[3], base.simplices[0], base.simplices[1], base.simplices[2]),
        )
        rep = verify_adjacency_chain(scrambled)
        if rep.passed:
            return
        assert rep.connected and not rep.order_ok
        order = rep.suggested_order
        reordered = Decomposition(
            FAN_GROUND, tuple(scrambled.simplices[i] for i in order)
        )
        assert verify_adjacency_chain(reordered).passed

    def test_single_simplex_passes(self):
        assert verify_adjacency_chain(decompose(TRI)).passed


class TestDecomposeProperties:
    @given(proper_point_sets(max_size=7, coord=3))
    @settings(max_examples=25, deadline=None)
    def test_all_verifiers_pass(self, B):
        D = decompose(B)
        assert verify_cover(D).passed
        assert verify_regular_position(D).passed
        assert verify_adjacency_chain(D).passed
        assert property_b_holds(D)

    @given(proper_point_sets(max_size=7, coord=3))
    @settings(max_examples=25, deadline=None)
    def test_every_point_is_some_vertex(self, B):
        D = decompose(B)
        used = set()
        for s in D.simplices:
            used.update(s.vertex_indices)
        assert used == set(range(len(B)))

    @given(proper_point_sets(max_size=6, coord=3))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_json(self, B):
        assert decompose(B).to_json_dict() == decompose(B).to_json_dict()


def _ground_4d(seed, n):
    rng = random.Random(seed)
    while True:
        pts = sorted({tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(n)})
        if len(pts) == n and affine_rank(pts) == 4:
            return PointSet(4, tuple(pts))


class TestFourDimensional:
    """The certificate is exact above dimension 3 too: no sampled mode."""

    GROUNDS = [_ground_4d(seed, n) for seed, n in ((11, 6), (2, 7), (3, 8), (4, 9))]

    @pytest.mark.parametrize("B", GROUNDS, ids=lambda B: f"{len(B)}pts")
    def test_decompose_passes(self, B):
        D = decompose(B)
        rep = verify_cover(D)
        assert rep.passed and rep.gluing.passed
        assert verify_regular_position(D).passed
        assert verify_adjacency_chain(D).passed

    @pytest.mark.parametrize("B", GROUNDS, ids=lambda B: f"{len(B)}pts")
    def test_dropped_simplex_fails(self, B):
        D = decompose(B)
        assert len(D.simplices) > 1
        for i in range(len(D.simplices)):
            cut = Decomposition(B, D.simplices[:i] + D.simplices[i + 1:])
            rep = verify_cover(cut)
            assert not rep.passed and not rep.gluing.passed
            assert rep.total_simplex_volume < rep.hull_volume

    @pytest.mark.parametrize("B", GROUNDS, ids=lambda B: f"{len(B)}pts")
    def test_swapped_vertex_fails(self, B):
        # a full-dimensional simplex is fixed by its region, so replacing
        # any vertex of a triangulation's simplex breaks the triangulation
        D = decompose(B)
        s = D.simplices[-1].vertex_indices
        tried = 0
        for w in range(len(B)):
            if w in s:
                continue
            for j in range(len(s)):
                swapped = Simplex(s[:j] + s[j + 1:] + (w,))
                try:
                    bad = Decomposition(B, D.simplices[:-1] + (swapped,))
                except ValueError:  # degenerate or already listed
                    continue
                assert not verify_cover(bad).passed
                tried += 1
        assert tried

    @pytest.mark.parametrize("B", GROUNDS, ids=lambda B: f"{len(B)}pts")
    def test_overlaid_triangulations_fail_on_volume(self, B):
        D = decompose(B)
        mirror = decompose(PointSet(4, tuple(tuple(-c for c in p) for p in B.points)))
        extra = tuple(s for s in mirror.simplices if s not in D.simplices)
        assert extra
        rep = verify_cover(Decomposition(B, D.simplices + extra))
        assert not rep.passed and rep.total_simplex_volume > rep.hull_volume

    def test_non_face_to_face_split_fails(self):
        # Two 4-simplices glued along the facet 0-3; the second is split at
        # the midpoint 6 of its edge 0-1, so the facet is no longer shared.
        e = [tuple(2 * int(i == j) for j in range(4)) for i in range(4)]
        apex_up, apex_down = (2, 2, 2, 2), (-2, -2, -2, -2)
        mid = tuple((a + b) // 2 for a, b in zip(e[0], e[1]))
        ground = PointSet(4, tuple(e) + (apex_up, apex_down, mid))
        whole = Decomposition(ground, ((0, 1, 2, 3, 4), (0, 1, 2, 3, 5)))
        assert verify_cover(whole).passed
        split = Decomposition(ground, ((0, 1, 2, 3, 4), (0, 2, 3, 5, 6), (1, 2, 3, 5, 6)))
        rep = verify_cover(split)
        assert rep.total_simplex_volume == rep.hull_volume
        assert not rep.passed
        assert rep.gluing.face == (0, 1, 2, 3)


def _seeded_ground(d, seed):
    """A seeded ground set in Z^d with at least two simplices in its decomposition.

    Every third seed (d >= 2) lifts its points from a lower-dimensional
    grid, so the set spans a proper flat of Z^d.
    """
    rng = random.Random(1000 * d + seed)
    while True:
        flat = rng.randint(1, d - 1) if d > 1 and seed % 3 == 0 else d
        lift = [[rng.randint(-2, 2) for _ in range(flat)] for _ in range(d)]
        shift = [rng.randint(-3, 3) for _ in range(d)]
        pts = []
        for _ in range(rng.randint(flat + 2, 8)):
            x = [rng.randint(-3, 3) for _ in range(flat)]
            pts.append(tuple(s + sum(a * b for a, b in zip(row, x)) for s, row in zip(shift, lift)))
        pts = list(dict.fromkeys(pts))
        if len(pts) >= 2:
            B = PointSet(d, tuple(pts))
            if len(decompose(B).simplices) >= 2:
                return B


def _corrupted(D):
    """D plus one simplex of the mirrored ground's decomposition, else D less one simplex."""
    B = D.ground
    mirror = decompose(PointSet(B.dim, tuple(tuple(-c for c in p) for p in B.points)))
    extra = [s for s in mirror.simplices if s not in D.simplices]
    if extra:
        return Decomposition(B, D.simplices + (extra[0],))
    mid = len(D.simplices) // 2
    return Decomposition(B, D.simplices[:mid] + D.simplices[mid + 1:])


# sha256 of the decompositions and cover reports of 12 seeded ground sets
# per dimension, intact and corrupted
DECOMPOSITION_DIGESTS = {
    1: "b59ae558aab795a60afc183b557ebaefac51a84ad3f981b75781417fee6bc174",
    2: "72608e5bff4cff5a872fcd615cdd5c0dc267d9e1d2c2c31e1df129a656996009",
    3: "bf06b56505417e7fd7e72c994ee139033e9582804dca0ab11d2d1e944622b49b",
    4: "fd60e0a8dea697414d9e197a9410965474c3084bf3ffb4c2d1aa58c64cd21f38",
}


class TestReportBytes:
    @pytest.mark.parametrize("d", sorted(DECOMPOSITION_DIGESTS))
    def test_decompositions_and_cover_reports_pinned(self, d):
        out = []
        for seed in range(12):
            D = decompose(_seeded_ground(d, seed))
            bad = _corrupted(D)
            out.append([D.to_json_dict(), verify_cover(D).to_dict(),
                        bad.to_json_dict(), verify_cover(bad).to_dict()])
        assert sha256(json.dumps(out).encode()).hexdigest() == DECOMPOSITION_DIGESTS[d]
