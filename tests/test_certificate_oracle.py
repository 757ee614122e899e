"""The facet-gluing and volume certificate against the pairwise oracle.

``verify_cover`` decides "is this a triangulation of conv(ground)" from
facet gluing plus one volume sum; ``pairwise_oracle`` decides the same
question by enumerating every pairwise intersection polytope.  They must
agree on every decomposition, intact or corrupted.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from sumsethull.decomposition import (
    Decomposition,
    Simplex,
    decompose,
    verify_cover,
    verify_regular_position,
)
from sumsethull.geometry import PointSet

from conftest import proper_point_sets
from pairwise_oracle import is_triangulation, pairwise_cover, pairwise_regular_position

CORRUPTIONS = ("overlaid", "split", "swapped", "dropped", "mirrored", "intact")


def _edges_of(simplex):
    return [(a, b) for i, a in enumerate(simplex) for b in simplex[i + 1:]]


def corrupt(B: PointSet, kind: str, draw) -> Decomposition:
    """decompose(B), then one corruption of kind ``kind``.

    dropped: one simplex removed.  swapped: one vertex of one simplex
    replaced by another ground point.  split: one simplex cut in two at
    the midpoint of an edge, which joins the ground set (coordinates are
    doubled so it is a lattice point); the neighbours across facets
    through that edge keep the whole facet, so the result is not face to
    face unless every such facet is on the hull boundary.  overlaid: the
    midpoints of all edges join the ground set, and a triangulation
    using them is laid over the one that does not; from dimension 2 on
    the two share no facet, so the overlay passes gluing and fails on
    volume alone.  mirrored: the simplices of a second triangulation of
    B (decompose of -B) added.
    """
    simplices = [s.vertex_indices for s in decompose(B).simplices]
    ground = B
    if kind == "dropped":
        assume(len(simplices) > 1)
        del simplices[draw(st.integers(0, len(simplices) - 1))]
    elif kind == "swapped":
        i = draw(st.integers(0, len(simplices) - 1))
        others = [v for v in range(len(B)) if v not in simplices[i]]
        assume(others)
        j = draw(st.integers(0, len(simplices[i]) - 1))
        w = draw(st.sampled_from(others))
        simplices[i] = simplices[i][:j] + simplices[i][j + 1:] + (w,)
    elif kind == "split":
        i = draw(st.integers(0, len(simplices) - 1))
        a, b = draw(st.sampled_from(_edges_of(simplices[i])))
        mid = tuple(x + y for x, y in zip(B.points[a], B.points[b]))
        ground = PointSet(B.dim, tuple(tuple(2 * c for c in p) for p in B.points) + (mid,))
        m = len(B)
        s = simplices.pop(i)
        simplices += [tuple(m if v == a else v for v in s), tuple(m if v == b else v for v in s)]
    elif kind == "overlaid":
        mids = sorted({tuple(x + y for x, y in zip(B.points[a], B.points[b]))
                       for s in simplices for a, b in _edges_of(s)})
        ground = PointSet(B.dim, tuple(tuple(2 * c for c in p) for p in B.points) + tuple(mids))
        simplices += [s.vertex_indices for s in decompose(ground).simplices]
    elif kind == "mirrored":
        mirror = PointSet(B.dim, tuple(tuple(-c for c in p) for p in B.points))
        extra = [s.vertex_indices for s in decompose(mirror).simplices if s.vertex_indices not in simplices]
        assume(extra)
        simplices += extra
    try:
        return Decomposition(ground, tuple(Simplex(s) for s in simplices))
    except ValueError:  # a degenerate or repeated simplex: not a decomposition at all
        assume(False)


@st.composite
def decompositions(draw, kind, dim=None, max_size=6):
    B = draw(proper_point_sets(dim=dim, max_size=max_size, coord=3))
    return corrupt(B, kind, draw)


class TestAgreement:
    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_certificate_agrees_with_pairwise_oracle(self, kind, data):
        D = data.draw(decompositions(kind))
        truth = is_triangulation(D)
        assert verify_cover(D).passed == truth
        if kind == "intact":
            assert truth
        if truth:
            assert verify_regular_position(D).passed
        if kind == "overlaid" and D.intrinsic_dim >= 2:
            assert verify_regular_position(D).passed and not truth

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_agreement_in_space(self, kind, data):
        D = data.draw(decompositions(kind, dim=3, max_size=7))
        assert verify_cover(D).passed == is_triangulation(D)


# Square with its four edge midpoints; corners 0-3, midpoints 4-7.
SQUARE_MIDPOINTS = PointSet.from_points(
    [(0, 0), (2, 0), (2, 2), (0, 2), (1, 0), (2, 1), (1, 2), (0, 1)]
)
WITHOUT_MIDPOINTS = ((0, 1, 2), (0, 2, 3))
WITH_MIDPOINTS = ((4, 5, 6), (4, 6, 7), (0, 4, 7), (1, 4, 5), (2, 5, 6), (3, 6, 7))


class TestCorruptedExamples:
    def test_each_triangulation_of_the_square_passes(self):
        for simplices in (WITHOUT_MIDPOINTS, WITH_MIDPOINTS):
            D = Decomposition(SQUARE_MIDPOINTS, simplices)
            assert verify_cover(D).passed and is_triangulation(D)

    def test_overlaid_triangulations_pass_gluing_and_fail_on_volume(self):
        D = Decomposition(SQUARE_MIDPOINTS, WITHOUT_MIDPOINTS + WITH_MIDPOINTS)
        rep = verify_cover(D)
        assert rep.gluing.passed and verify_regular_position(D).passed
        assert rep.total_simplex_volume == 8 and rep.hull_volume == 4
        assert not rep.passed
        assert not is_triangulation(D)

    def test_non_face_to_face_split(self):
        # (0,2) is one edge of the left triangle; the right side meets it
        # in two edges through its midpoint 4
        ground = PointSet.from_points([(0, 0), (2, 0), (2, 2), (-2, 2), (1, 1)])
        D = Decomposition(ground, ((0, 2, 3), (0, 1, 4), (1, 2, 4)))
        assert pairwise_cover(D).passed
        assert not pairwise_regular_position(D).passed
        rep = verify_regular_position(D)
        assert not rep.passed and rep.face == (0, 2) and rep.simplices == (0,) and rep.beyond == 1
        assert not verify_cover(D).passed

    @pytest.mark.parametrize("points, simplices", [
        # [2, 4] covered twice, [0, 2] not at all: facets 2 and 4 are each
        # held by two segments on one side
        ([(0,), (2,), (3,), (4,)], ((1, 3), (1, 2), (2, 3))),
        # [4, 8] covered three times: facets 4 and 8 are each held by three
        # segments on one side
        ([(0,), (4,), (5,), (6,), (7,), (8,), (12,)], ((1, 5), (1, 3), (3, 5), (1, 2), (2, 4), (4, 5))),
    ])
    def test_volume_cannot_stand_in_for_gluing(self, points, simplices):
        D = Decomposition(PointSet.from_points(points), simplices)
        rep = verify_cover(D)
        assert rep.total_simplex_volume == rep.hull_volume
        assert not rep.gluing.passed and not rep.passed
        assert not is_triangulation(D)

    def test_dropped_simplex(self):
        D = Decomposition(SQUARE_MIDPOINTS, WITH_MIDPOINTS[1:])
        assert not verify_cover(D).passed and not is_triangulation(D)

    def test_swapped_vertex(self):
        D = Decomposition(SQUARE_MIDPOINTS, ((0, 1, 2), (0, 1, 3)))
        rep = verify_regular_position(D)
        assert not rep.passed and rep.face == (0, 2) and rep.simplices == (0,) and rep.beyond == 3
        assert not verify_cover(D).passed and not is_triangulation(D)


# The pairwise diagnostics the library verifiers reported before the
# certificate replaced them, now pinned on the oracle.
OVERLAP = Decomposition(
    PointSet.from_points([(0, 0), (4, 0), (0, 4), (2, 0), (6, 0), (2, 4)]),
    (Simplex((0, 1, 2)), Simplex((3, 4, 5))),
)
DISJOINT = Decomposition(
    PointSet.from_points([(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)]),
    (Simplex((0, 1, 2)), Simplex((3, 4, 5))),
)


class TestPairwiseDiagnostics:
    def test_overlapping_simplices_reported(self):
        rep = pairwise_cover(OVERLAP)
        assert not rep.passed and rep.overlapping_pair == (0, 1)
        assert not verify_cover(OVERLAP).passed

    def test_overlapping_interiors_fail(self):
        rep = pairwise_regular_position(OVERLAP)
        assert not rep.passed
        assert rep.offending_pair == (0, 1)
        assert rep.witness == (Fraction(2), Fraction(0))
        assert not verify_cover(OVERLAP).passed

    def test_disjoint_simplices_pass(self):
        # pairwise regular position holds, but the two triangles do not
        # cover their hull: the certificate refuses them
        assert pairwise_regular_position(DISJOINT).passed
        assert not pairwise_cover(DISJOINT).passed
        assert not verify_regular_position(DISJOINT).passed
        assert not verify_cover(DISJOINT).passed
