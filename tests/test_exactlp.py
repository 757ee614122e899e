"""Phase-1 exact simplex method: equality-system feasibility."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lp_oracle
from sumsethull.exactlp import feasible_nonneg
from sumsethull.geometry import conv_contains
from sumsethull.hull import hull_facets

from conftest import lattice_point, proper_point_sets


def test_trivially_feasible():
    # x = 1 with x >= 0
    assert feasible_nonneg([[1]], [1])


def test_trivially_infeasible():
    # x = -1 with x >= 0
    assert not feasible_nonneg([[1]], [-1])


def test_convex_combination_system():
    # lambda_1 + lambda_2 = 1, 0*l1 + 2*l2 = 1 -> l = (1/2, 1/2)
    assert feasible_nonneg([[1, 1], [0, 2]], [1, 1])
    # ... = 3 is outside the segment [0, 2]
    assert not feasible_nonneg([[1, 1], [0, 2]], [1, 3])


def test_redundant_rows_handled():
    rows = [[1, 1], [1, 1], [2, 2]]
    assert feasible_nonneg(rows, [1, 1, 2])
    assert not feasible_nonneg(rows, [1, 1, 3])


def test_degenerate_ties_terminate():
    # many identical columns force pivot ties; Bland's rule must not cycle
    rows = [[1] * 8, [1] * 8]
    assert feasible_nonneg(rows, [1, 1])
    assert not feasible_nonneg(rows, [1, 2])


def test_fractional_data():
    rows = [[Fraction(1, 3), Fraction(2, 3)]]
    assert feasible_nonneg(rows, [Fraction(1, 2)])


@given(
    st.lists(st.integers(-5, 5), min_size=2, max_size=5),
    st.data(),
)
@settings(max_examples=60)
def test_known_feasible_combinations(weights_raw, data):
    """Ax = b is feasible when b is built from a known nonnegative x."""
    n = len(weights_raw)
    m = data.draw(st.integers(1, 3))
    matrix = [
        [data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)
    ]
    x = [Fraction(abs(w)) for w in weights_raw]
    rhs = [sum(row[j] * x[j] for j in range(n)) for row in matrix]
    assert feasible_nonneg(matrix, rhs)


@given(st.integers(1, 4), st.data())
@settings(max_examples=40)
def test_positive_sum_with_nonpositive_coefficients_infeasible(n, data):
    """sum of nonpositive multiples can never be positive."""
    row = [data.draw(st.integers(-4, 0)) for _ in range(n)]
    assert not feasible_nonneg([row], [1])


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1"])
@pytest.mark.parametrize("where", ["rows", "rhs"])
def test_non_exact_entries_refused(bad, where):
    rows, rhs = [[1, 2], [3, 4]], [1, 2]
    if where == "rows":
        rows[1][0] = bad
    else:
        rhs[1] = bad
    with pytest.raises(ValueError, match=f"LP entry {bad!r} is not an integer or Fraction"):
        feasible_nonneg(rows, rhs)


_SMALL = st.integers(-4, 4)
_FRACTION = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_HUGE = st.builds(lambda s, e: s * 10**40 + e, st.sampled_from([-1, 1]), st.integers(-3, 3))


@st.composite
def lp_systems(draw):
    """(rows, rhs, x) with m <= 5 rows and n <= 9 columns.

    Entries are small integers, Fractions, or a mix with values near
    +-10^40.  Extra rows are duplicates, zero rows or sums of two rows
    (with their right-hand sides), and extra columns repeat one column,
    which makes Bland's rule break ties.  ``x`` is a nonnegative witness
    when the right-hand side was built from one, else None.
    """
    entry = draw(st.sampled_from([_SMALL, _FRACTION, st.one_of(_SMALL, _HUGE)]))
    m0 = draw(st.integers(1, 4))
    n0 = draw(st.integers(1, 6))
    rows = [[draw(entry) for _ in range(n0)] for _ in range(m0)]
    copies = draw(st.integers(0, 9 - n0))
    if copies:
        col = draw(st.integers(0, n0 - 1))
        for row in rows:
            row.extend([row[col]] * copies)
    n = len(rows[0])
    if draw(st.booleans()):
        x = [draw(st.integers(0, 3)) for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        x = None
        rhs = [draw(entry) for _ in rows]
    for _ in range(draw(st.integers(0, 5 - m0))):
        kind = draw(st.sampled_from(["duplicate", "zero", "sum"]))
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        if kind == "duplicate":
            rows.append(list(rows[i]))
            rhs.append(rhs[i])
        elif kind == "zero":
            rows.append([0] * n)
            rhs.append(0 if x is not None else draw(st.sampled_from([0, 1])))
        else:
            rows.append([a + b for a, b in zip(rows[i], rows[j])])
            rhs.append(rhs[i] + rhs[j])
    return rows, rhs, x


@given(lp_systems())
@settings(max_examples=300, deadline=None)
def test_matches_fraction_oracle(system):
    rows, rhs, x = system
    got = feasible_nonneg(rows, rhs)
    assert got == lp_oracle.feasible_nonneg(rows, rhs)
    if x is not None:
        assert got


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    proper_point_sets(dim=d, max_size=d + 3),
    st.lists(lattice_point(d, coord=4), min_size=1, max_size=6),
)))
@settings(max_examples=80, deadline=None)
def test_conv_contains_matches_facet_membership(case):
    """On full-dimensional sets, LP membership is the integer facet system."""
    P, queries = case
    facets = hull_facets(list(P.points))
    for q in queries + list(P.points):
        inside = all(sum(a * b for a, b in zip(f.normal, q)) <= f.offset for f in facets)
        assert conv_contains(P, q) == inside
