"""The packed-integer sumset kernel against the brute-force oracle.

``sumsets`` packs points into integers and builds kB by iterated sums;
``sumset_oracle`` adds coordinate tuples and enumerates multisets.  They
must return the same points in the same order, in every dimension and
for coordinates far outside machine-word range.
"""

from hypothesis import given, settings, strategies as st

import sumset_oracle
from sumsethull.geometry import PointSet
from sumsethull.sumsets import a_plus_kb, k_fold, sumset

BIG = 10**40
# small coordinates of either sign, and clusters near +-10^40, so that
# one set can span a range of 2 * 10^40 in a coordinate
COORDS = st.one_of(
    st.integers(-6, 6),
    st.integers(BIG - 3, BIG + 3),
    st.integers(-BIG - 3, -BIG + 3),
)


def point_sets(d, max_size):
    return st.lists(st.tuples(*[COORDS] * d), min_size=1, max_size=max_size, unique=True).map(
        lambda pts: PointSet(d, tuple(pts))
    )


@st.composite
def operands(draw):
    d = draw(st.integers(1, 4))
    return draw(point_sets(d, 5)), draw(point_sets(d, 6)), draw(st.integers(1, 5))


class TestAgainstOracle:
    @given(operands())
    @settings(max_examples=150, deadline=None)
    def test_sumset(self, ops):
        A, B, _ = ops
        assert sumset(A, B).points.points == sumset_oracle.sumset(A.points, B.points)

    @given(operands())
    @settings(max_examples=150, deadline=None)
    def test_k_fold(self, ops):
        _, B, k = ops
        assert k_fold(B, k).points.points == sumset_oracle.k_fold(B.points, k)

    @given(operands())
    @settings(max_examples=150, deadline=None)
    def test_a_plus_kb(self, ops):
        A, B, k = ops
        assert a_plus_kb(A, B, k).points.points == sumset_oracle.a_plus_kb(A.points, B.points, k)

    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=2, max_size=6, unique=True),
        st.integers(1, 5),
    )))
    @settings(max_examples=100, deadline=None)
    def test_k_fold_with_many_collisions(self, case):
        # dense small boxes make most multisets share their sum
        pts, k = case
        B = PointSet(len(pts[0]), tuple(pts))
        assert k_fold(B, k).points.points == sumset_oracle.k_fold(B.points, k)
