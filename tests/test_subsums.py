"""Leave-one-out sums and the endpoint chain inequality."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumsethull import subsums
from sumsethull.geometry import PointSet, vertex_set
from sumsethull.subsums import (
    _SUM_WORK_LIMIT,
    SubsumInstance,
    _leave_one_out,
    _sum_work,
    endpoints,
    subsum_report,
    sumset_1d,
)
from sumsethull.sumsets import sumset

from conftest import point_sets
from subsum_oracle import point_set_oracle

int_sets = st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True)


class TestEndpoints:
    def test_three_elements(self):
        assert endpoints([3, 7, 9]) == (3, 9)

    def test_singleton(self):
        assert endpoints([5]) == (5,)

    def test_negative_values(self):
        assert endpoints([-2, 0, 4]) == (-2, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            endpoints([])

    @given(int_sets)
    def test_size_one_or_two(self, s):
        e = endpoints(s)
        assert 1 <= len(e) <= 2
        assert set(e) <= set(s)


class TestSubsumInstance:
    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            SubsumInstance(((1, 2),))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            SubsumInstance(((1, 2), ()))

    def test_normalizes_order_and_duplicates(self):
        inst = SubsumInstance(((3, 1, 3), (0, -1)))
        assert inst.sets == ((1, 3), (-1, 0))

    def test_round_trip(self):
        inst = SubsumInstance(((0, 2), (1,)))
        assert SubsumInstance.from_dict(inst.to_dict()) == inst

    @pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(7, 2), Fraction(2), True, False])
    def test_non_integer_value_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"set element {re.escape(repr(bad))} is not an integer"):
            SubsumInstance(((1, bad), (3,)))


class TestSubsumReport:
    def test_two_equal_ranges(self):
        rep = subsum_report(SubsumInstance(((0, 1, 2), (0, 1, 2))))
        assert rep.s_size == 5
        assert rep.s_prime_size == 5
        assert rep.bound == Fraction(5)
        assert rep.chain_satisfied

    def test_three_doubletons(self):
        rep = subsum_report(SubsumInstance(((0, 1), (0, 1), (0, 1))))
        assert rep.s_size == 4
        assert rep.s_i_sizes == (3, 3, 3)
        assert rep.bound == Fraction(4)
        assert rep.s_prime_size == 4
        assert rep.chain_satisfied

    def test_singleton_member_keeps_chain(self):
        rep = subsum_report(SubsumInstance(((5,), (0, 3, 7))))
        assert rep.chain_satisfied

    def test_non_integral_bound_kept_exact(self):
        rep = subsum_report(SubsumInstance(((0, 5), (0, 1), (0, 2))))
        assert rep.bound.denominator == 2

    @given(st.lists(int_sets, min_size=2, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_chain_holds_on_random_instances(self, sets):
        rep = subsum_report(SubsumInstance(tuple(tuple(s) for s in sets)))
        assert rep.chain_satisfied
        assert rep.s_size >= rep.s_prime_size
        assert Fraction(rep.s_prime_size) >= rep.bound

    @given(st.lists(int_sets, min_size=2, max_size=4), st.integers(-50, 50), st.data())
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance(self, sets, t, data):
        inst = SubsumInstance(tuple(tuple(s) for s in sets))
        which = data.draw(st.integers(0, len(sets) - 1))
        shifted = tuple(
            tuple(v + t for v in s) if i == which else tuple(s)
            for i, s in enumerate(inst.sets)
        )
        assert subsum_report(SubsumInstance(shifted)) == subsum_report(inst)

    @given(st.lists(int_sets, min_size=2, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_s_prime_subset_of_s(self, sets):
        """Each endpoint-substituted sum stays inside the complete sum."""
        inst = SubsumInstance(tuple(tuple(s) for s in sets))
        full = inst.sets[0]
        for s in inst.sets[1:]:
            full = sumset_1d(full, s)
        S = set(full)
        k = inst.k
        for i in range(k):
            partial = (0,)
            for j in range(k):
                if j != i:
                    partial = sumset_1d(partial, inst.sets[j])
            s_i_prime = sumset_1d(partial, endpoints(inst.sets[i]))
            assert set(s_i_prime) <= S


class TestLeaveOneOutOnPointSets:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("dim", [2, 3])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_quadratic_oracle(self, dim, k, data):
        family = tuple(data.draw(point_sets(dim=dim, max_size=4, coord=3)) for _ in range(k))
        zero = PointSet(dim, ((0,) * dim,))
        rep = _leave_one_out(family, lambda X, Y: sumset(X, Y).points, vertex_set, zero)
        assert (rep.s_size, list(rep.s_i_sizes), rep.s_prime_size) == point_set_oracle(family)


def generic_sets(k, size=5, seed=7):
    """k sets of huge random integers: every pairwise sum is distinct."""
    rng = random.Random(seed)
    return tuple(tuple(rng.randrange(10**30) for _ in range(size)) for _ in range(k))


class TestWorkLimit:
    def _counted_work(self, monkeypatch, inst):
        work = []

        def counting(X, Y):
            work.append(len(X) * len(Y))
            return sumset_1d(X, Y)

        monkeypatch.setattr(subsums, "sumset_1d", counting)
        subsum_report(inst)
        return sum(work)

    def test_seventy_five_generic_numbers_refused_at_once(self):
        # 15 sets of 5: |S| would be 5^15, the report would run for days
        inst = SubsumInstance(generic_sets(15))
        with pytest.raises(ValueError, match=r"subsum report needs about 3\.51e\+11 sums, over the limit"):
            subsum_report(inst)

    def test_estimate_is_exact_for_generic_sets(self, monkeypatch):
        inst = SubsumInstance(generic_sets(4))
        assert self._counted_work(monkeypatch, inst) == _sum_work(inst.sets)

    @given(st.lists(int_sets, min_size=2, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_estimate_bounds_the_work(self, sets):
        inst = SubsumInstance(tuple(tuple(s) for s in sets))
        with pytest.MonkeyPatch.context() as mp:
            assert self._counted_work(mp, inst) <= _sum_work(inst.sets) <= _SUM_WORK_LIMIT
