"""Exact sumsets A+B, kB and A+kB, and the work limit."""

import pytest
from hypothesis import given, settings, strategies as st

from sumsethull import sumsets
from sumsethull.bounds import binom
from sumsethull.geometry import PointSet
from sumsethull.sumsets import _SUM_WORK_LIMIT, _check_work, a_plus_kb, k_fold, multiset_sum_count, sumset

from conftest import contained_pairs, lattice_point, point_sets, simplices

TRI = PointSet.from_points([(0, 0), (1, 0), (0, 1)])
BIG_TRI = PointSet.from_points([(0, 0), (3, 0), (0, 3)])


class TestSumset:
    def test_1d_interval(self):
        X = PointSet.from_points([(0,), (1,)])
        assert sumset(X, X).points.points == ((0,), (1,), (2,))

    def test_zero_translate_identity(self):
        zero = PointSet.from_points([(0, 0)])
        assert sumset(TRI, zero).points == PointSet(2, tuple(sorted(TRI.points)))

    def test_triangle_self_sum(self):
        assert sumset(TRI, TRI).cardinality == 6

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sumset(TRI, PointSet.from_points([(0,)]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sumset(PointSet(2, ()), TRI)

    @given(point_sets(max_size=5), point_sets(max_size=5))
    @settings(max_examples=50)
    def test_commutative(self, X, Y):
        if X.dim != Y.dim:
            return
        assert sumset(X, Y).points == sumset(Y, X).points

    @given(point_sets(max_size=5), st.data())
    @settings(max_examples=50)
    def test_translation_invariant_cardinality(self, X, data):
        Y = data.draw(point_sets(dim=X.dim, max_size=5))
        t = data.draw(lattice_point(X.dim, 10))
        s = data.draw(lattice_point(X.dim, 10))
        base = sumset(X, Y).cardinality
        X_t = PointSet(X.dim, tuple(tuple(c + v for c, v in zip(p, t)) for p in X.points))
        Y_s = PointSet(Y.dim, tuple(tuple(c + v for c, v in zip(p, s)) for p in Y.points))
        assert sumset(X_t, Y_s).cardinality == base

    @given(point_sets(max_size=6), st.data())
    @settings(max_examples=50)
    def test_monotone_in_first_operand(self, X, data):
        Y = data.draw(point_sets(dim=X.dim, max_size=4))
        keep = data.draw(st.integers(1, len(X)))
        sub = PointSet(X.dim, X.points[:keep])
        small = set(sumset(sub, Y).points.points)
        large = set(sumset(X, Y).points.points)
        assert small <= large


class TestKFold:
    def test_triangle_squared(self):
        assert k_fold(TRI, 2).cardinality == 6

    def test_1d_interval_cubed(self):
        B = PointSet.from_points([(0,), (1,)])
        r = k_fold(B, 3)
        assert r.points.points == ((0,), (1,), (2,), (3,))
        assert r.cardinality == binom(4, 3)

    def test_k1_identity(self):
        assert k_fold(BIG_TRI, 1).points == PointSet(2, tuple(sorted(BIG_TRI.points)))

    def test_k0_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            k_fold(TRI, 0)

    @given(point_sets(max_size=5, coord=3), st.integers(2, 4))
    @settings(max_examples=40)
    def test_recursion_identity(self, B, k):
        stepwise = sumset(k_fold(B, k - 1).points, B).points
        assert k_fold(B, k).points == stepwise

    @given(simplices(coord=4), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_simplex_count_and_unique_representation(self, B, k):
        """|kB| hits the multiset count exactly for affinely independent B."""
        d = B.dim
        r = k_fold(B, k)
        assert r.cardinality == binom(d + k, k)
        assert r.cardinality == multiset_sum_count(B, k)


class TestAPlusKB:
    def test_singleton_translate(self):
        A = PointSet.from_points([(1, 1)])
        r = a_plus_kb(A, BIG_TRI, 1)
        assert r.cardinality == 3
        assert r.provenance["k"] == 1

    def test_triangle_self_equals_simplex_formula(self):
        assert a_plus_kb(TRI, TRI, 1).cardinality == 6

    def test_singleton_double_sum(self):
        A = PointSet.from_points([(1, 1)])
        assert a_plus_kb(A, BIG_TRI, 2).cardinality == 6

    @given(contained_pairs(max_b=5, max_a=4), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_composition(self, pair, k):
        A, B = pair
        assert a_plus_kb(A, B, k).points == sumset(A, k_fold(B, k).points).points


class TestWorkLimit:
    PAIR = PointSet.from_points([(0,), (1,)])

    def test_outsized_k_fold_refused_with_its_estimate(self):
        # 50 * C(79, 50) ~ 1.66e23 additions
        line = PointSet.from_points([(i,) for i in range(30)])
        with pytest.raises(ValueError, match=r"50B needs about 1\.66e\+23 sums"):
            k_fold(line, 50)

    def test_limit_is_exact_and_counts_a(self):
        # (k + |A|) * C(|B|+k-1, k) = (3999 + 1001) * 4000 is exactly the limit
        assert _SUM_WORK_LIMIT == 5000 * 4000
        _check_work(self.PAIR, 3999, 1001, "A + kB")
        with pytest.raises(ValueError, match="over the limit"):
            _check_work(self.PAIR, 3999, 1002, "A + kB")

    def test_a_plus_kb_refused_where_k_fold_alone_fits(self):
        A = PointSet.from_points([(i,) for i in range(1002)])
        _check_work(self.PAIR, 3999, 0, "kB")
        with pytest.raises(ValueError, match=r"A \+ 3999B needs about 2\.00e\+7 sums"):
            a_plus_kb(A, self.PAIR, 3999)

    def test_one_point_with_a_huge_k_is_refused(self):
        # a single multiset, but a k-term sum
        with pytest.raises(ValueError, match="over the limit"):
            k_fold(PointSet.from_points([(1, 1)]), _SUM_WORK_LIMIT + 1)

    def test_large_b_refused_without_counting(self):
        B = PointSet.from_points([(i,) for i in range(1100)])
        with pytest.raises(ValueError, match=r"\|B\| = 1100 is over the limit"):
            k_fold(B, 10**9)


class TestKernelWork:
    @given(contained_pairs(max_b=6, max_a=4), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_additions_within_the_limit_estimate(self, pair, k):
        """The iterated kernel adds at most (k + |A|) * C(|B|+k-1, k) codes."""
        A, B = pair
        add_codes, counted = sumsets._add_codes, []

        def counting(X, Y):
            counted.append(len(X) * len(Y))
            return add_codes(X, Y)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sumsets, "_add_codes", counting)
            a_plus_kb(A, B, k)
        assert sum(counted) <= (k + len(A)) * multiset_sum_count(B, k)


class TestSplitTranslateDisjointness:
    @given(simplices(dim=2, coord=3), st.data())
    @settings(max_examples=30, deadline=None)
    def test_vertex_and_interior_translates_disjoint(self, B, data):
        """With A split into A cap B and the rest, the two k-fold sums are disjoint."""
        from sumsethull.hull import lattice_points

        grid = lattice_points(B)
        size = data.draw(st.integers(1, min(5, len(grid))))
        idx = data.draw(
            st.lists(st.integers(0, len(grid) - 1), min_size=size, max_size=size, unique=True)
        )
        k = data.draw(st.integers(1, 3))
        A = [grid[i] for i in idx]
        A1 = [p for p in A if p in B.points]
        A2 = [p for p in A if p not in B.points]
        if not A1 or not A2:
            return
        kb = k_fold(B, k).points
        s1 = set(sumset(PointSet(2, tuple(A1)), kb).points.points)
        s2 = set(sumset(PointSet(2, tuple(A2)), kb).points.points)
        assert not (s1 & s2)
        translates = [
            set(sumset(PointSet(2, (a,)), kb).points.points) for a in A2
        ]
        for i in range(len(translates)):
            for j in range(i + 1, len(translates)):
                assert not (translates[i] & translates[j])
