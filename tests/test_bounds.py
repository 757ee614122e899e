"""Closed-form bounds and theorem-level verification records."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumsethull.bounds import (
    HypothesisError,
    binom,
    freiman_bound,
    kfold_bound,
    simplex_exact_count,
    verify_theorem,
)
from sumsethull.geometry import PointSet

from conftest import contained_pairs, proper_point_sets

TRI = PointSet.from_points([(0, 0), (1, 0), (0, 1)])
BIG_TRI = PointSet.from_points([(0, 0), (3, 0), (0, 3)])


class TestBinom:
    def test_basic(self):
        assert binom(4, 2) == 6

    def test_r_exceeds_n_gives_zero(self):
        assert binom(1, 2) == 0

    def test_r_zero(self):
        assert binom(5, 0) == 1


class TestFreimanBound:
    def test_plane(self):
        assert freiman_bound(3, 2) == 6

    def test_line_classical(self):
        assert freiman_bound(5, 1) == 9

    def test_vacuous_negative(self):
        assert freiman_bound(1, 3) == -2


class TestKfoldBound:
    def test_k1_plane(self):
        assert kfold_bound(5, 2, 1) == 12

    def test_double_sum(self):
        assert kfold_bound(4, 2, 2) == 16

    def test_vacuous_negative(self):
        # 1*C(5,3) - 3*C(5,4) = 10 - 15
        assert kfold_bound(1, 2, 3) == -5

    @given(st.integers(1, 50), st.integers(1, 6))
    def test_k1_reduces_to_freiman(self, m, d):
        assert kfold_bound(m, d, 1) == freiman_bound(m, d)

    @given(st.integers(1, 50), st.integers(1, 6), st.integers(1, 6))
    def test_two_closed_forms_agree(self, m, d, k):
        """The product form equals the binomial-difference form exactly."""
        alt = (Fraction(m) - Fraction(k * d, k + 1)) * binom(d + k, k)
        assert kfold_bound(m, d, k) == alt


class TestSimplexExactCount:
    def test_full_intersection_triangle(self):
        assert simplex_exact_count(3, 3, 2, 1) == 6

    def test_disjoint_case_reduces_to_product(self):
        assert simplex_exact_count(4, 0, 2, 2) == 24

    def test_single_vertex_case(self):
        assert simplex_exact_count(3, 1, 2, 1) == 9

    def test_m1_bounds_enforced(self):
        with pytest.raises(ValueError):
            simplex_exact_count(5, 4, 2, 1)
        with pytest.raises(ValueError):
            simplex_exact_count(1, 2, 2, 1)

    @given(st.integers(1, 30), st.integers(1, 5), st.integers(1, 5), st.data())
    def test_nonincreasing_in_m1(self, m, d, k, data):
        hi = min(m, d + 1)
        m1 = data.draw(st.integers(0, hi))
        values = [simplex_exact_count(m, t, d, k) for t in range(hi + 1)]
        assert values == sorted(values, reverse=True)
        assert simplex_exact_count(m, m1, d, k) >= kfold_bound(m, d, k)

    @given(st.integers(1, 30), st.integers(1, 5), st.integers(1, 5))
    def test_m1_zero_and_one_coincide(self, m, d, k):
        expected = m * binom(d + k, k)
        assert simplex_exact_count(m, 0, d, k) == expected
        if m >= 1:
            assert simplex_exact_count(m, 1, d, k) == expected


class TestVerifyTheorem:
    def test_simplex_exact_triangle(self):
        rec = verify_theorem("simplex_exact", TRI, TRI, k=1)
        assert rec.actual == 6 and rec.bound == 6 and rec.satisfied

    def test_k_fold_vacuous_bound(self):
        A = PointSet.from_points([(1, 1)])
        rec = verify_theorem("k_fold", A, BIG_TRI, k=2)
        assert rec.bound == -2 and rec.actual == 6 and rec.satisfied

    def test_freiman_improper_rejected(self):
        A = PointSet.from_points([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(HypothesisError, match="A not proper d-dimensional"):
            verify_theorem("freiman", A)

    def test_freiman_takes_no_second_set(self):
        with pytest.raises(ValueError, match="takes no second set"):
            verify_theorem("freiman", TRI, TRI)

    def test_two_sets_requires_containment(self):
        A = PointSet.from_points([(5, 5)])
        with pytest.raises(HypothesisError, match="A is not contained in conv B"):
            verify_theorem("two_sets", A, BIG_TRI)

    def test_two_sets_requires_proper_b(self):
        A = PointSet.from_points([(0, 0)])
        B = PointSet.from_points([(0, 0), (1, 1)])
        with pytest.raises(HypothesisError, match="B not proper d-dimensional"):
            verify_theorem("two_sets", A, B)

    def test_simplex_exact_requires_simplex(self):
        A = PointSet.from_points([(1, 1)])
        B = PointSet.from_points([(0, 0), (3, 0), (0, 3), (3, 3)])
        with pytest.raises(HypothesisError, match="not a simplex"):
            verify_theorem("simplex_exact", A, B, k=1)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem("nonsense", TRI)

    @given(proper_point_sets(coord=3))
    @settings(max_examples=30, deadline=None)
    def test_freiman_and_vertex_sum_always_satisfied(self, A):
        for tag in ("freiman", "vertex_sum"):
            rec = verify_theorem(tag, A)
            assert rec.satisfied
            assert rec.actual >= rec.bound

    @given(contained_pairs(max_b=5, max_a=5), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_k_fold_always_satisfied(self, pair, k):
        A, B = pair
        rec = verify_theorem("k_fold", A, B, k=k)
        assert rec.satisfied
        rec1 = verify_theorem("two_sets", A, B)
        assert rec1.satisfied

    def test_record_serialization_embeds_sets(self):
        rec = verify_theorem("k_fold", TRI, TRI, k=2, instance="t")
        data = rec.to_dict()
        assert data["witness"]["a"] == [list(p) for p in TRI.points]
        assert data["instance"] == "t"


def long_simplex(m: int, d: int) -> PointSet:
    """L(m, d) = {0, e1, 2e1, ..., (m-d)e1, e2, ..., ed}: m points, d+1 of them vertices."""
    def e(i, t=1):
        return tuple(t if c == i else 0 for c in range(d))

    return PointSet(d, tuple(e(0, t) for t in range(m - d + 1)) + tuple(e(i) for i in range(1, d)))


def long_simplex_vertices(m: int, d: int) -> PointSet:
    return PointSet(d, tuple(p for p in long_simplex(m, d).points if p[0] in (0, m - d)))


LONG_SIMPLICES = [(m, d) for d in range(1, 5) for m in range(d + 1, d + 6)]


class TestSharpness:
    """Every bound is attained on the long simplex, so a bound off by one fails here."""

    def test_vertices_of_the_long_simplex(self):
        assert long_simplex_vertices(6, 3).points == ((0, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1))
        assert len(long_simplex(6, 3)) == 6

    @pytest.mark.parametrize("m, d", LONG_SIMPLICES)
    def test_slack_is_zero(self, m, d):
        L, V = long_simplex(m, d), long_simplex_vertices(m, d)
        records = [
            verify_theorem("freiman", L),
            verify_theorem("vertex_sum", L),
            verify_theorem("two_sets", L, L),
            verify_theorem("two_sets", L, V),
            *(verify_theorem("k_fold", L, V, k=k) for k in (1, 2, 3)),
        ]
        assert [rec.actual - rec.bound for rec in records] == [0] * len(records)
