"""Exact phase-1 simplex method on an integer tableau.

Decides feasibility of systems {x >= 0 : A x = b} exactly, with Bland's
anti-cycling pivot rule, which guarantees termination without any
numerical tie-breaking.  Only feasibility is needed by the geometry
predicates, so no phase-2 is implemented.

The tableau is kept fraction-free (Edmonds 1967; Bareiss 1968): integer
entries over one common positive denominator ``den``, so the rational
tableau is the integer one divided by ``den``.  A row holding Fraction
data is first multiplied by the lcm of its denominators, which changes
neither its solutions nor the feasibility answer.  A pivot on the entry
p > 0 replaces every other row r by (r * p - r[enter] * pivot row) // den
and then sets den = p; the pivot row itself stays as it is.  The
division is exact: with B the current basis matrix, ``den`` is |det B|
and, by Cramer's rule, each entry is (up to sign) the determinant of B
with one column replaced, an integer (Sylvester's identity).  The
reduced-cost row is one more row of the same system, so the same holds
for it.  Every rational value is its integer entry over the one positive
``den``, so signs and ratio comparisons (by cross-multiplication) are
those of the rational tableau: for integer data every pivot is the one
the rational method would take.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import index
from typing import Sequence


def _exact_entry(v) -> int | Fraction:
    """The entry as an int or Fraction; a float, bool or anything else is refused."""
    if not isinstance(v, bool):
        if isinstance(v, Fraction):
            return v
        try:
            return index(v)
        except TypeError:
            pass
    raise ValueError(f"LP entry {v!r} is not an integer or Fraction")


def _integer_row(row: list) -> list[int]:
    """The row's entries, checked, scaled to integers by the lcm of their denominators."""
    row = [_exact_entry(v) for v in row]
    scale = lcm(*(v.denominator for v in row))
    return [int(v * scale) for v in row]


def feasible_nonneg(rows: Sequence[Sequence], rhs: Sequence) -> bool:
    """True iff there is x >= 0 with rows . x = rhs, decided exactly.

    ``rows`` is an m x n coefficient matrix and ``rhs`` the length-m
    right-hand side; every entry is an int or a Fraction (a float or
    bool is refused with ValueError).  Adds one artificial variable per
    constraint and minimises their sum; the system is feasible exactly
    when that minimum is 0.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if m == 0:
        return True
    n = len(rows[0])
    all_ints = set(map(type, chain(chain.from_iterable(rows), rhs))) <= {int}

    # Tableau rows: n structural columns, m artificial columns, then b >= 0.
    tab: list[list[int]] = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if len(row) != n:
            raise ValueError("ragged coefficient matrix")
        r = [*row, b] if all_ints else _integer_row([*row, b])
        if r[-1] < 0:
            r = [-v for v in r]
        art = [0] * m
        art[i] = 1
        tab.append(r[:n] + art + r[n:])
    den = 1

    basis = list(range(n, n + m))

    # Reduced costs for the phase-1 objective (cost 1 on artificials):
    # z[j] = c_j - sum_i tab[i][j]; the last entry is the negated objective.
    z = [-sum(col) for col in zip(*tab)]
    for j in range(n, n + m):
        z[j] += 1

    max_pivots = 1000 + 50 * (n + m)
    for _ in range(max_pivots):
        enter = -1
        for j in range(n + m):
            if z[j] < 0:
                enter = j
                break
        if enter < 0:
            return z[-1] == 0
        # Ratio test b_i / a_i, compared as b_i * a_l < b_l * a_i; ties go
        # to the smallest basic variable index (Bland).
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                lhs = tab[i][-1] * tab[leave][enter]
                rhs_l = tab[leave][-1] * a
                if lhs < rhs_l or (lhs == rhs_l and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; invariant violated")
        prow = tab[leave]
        pv = prow[enter]
        for i in range(m):
            if i != leave:
                tab[i] = _eliminate(tab[i], prow, pv, den, enter)
        z = _eliminate(z, prow, pv, den, enter)
        den = pv
        basis[leave] = enter
    raise RuntimeError("pivot limit exceeded")


def _eliminate(row: list[int], prow: list[int], pv: int, den: int, enter: int) -> list[int]:
    """One fraction-free row update: (row * pv - row[enter] * prow) // den, exact."""
    f = row[enter]
    if f:
        return [(a * pv - f * b) // den for a, b in zip(row, prow)]
    if pv == den:
        return row
    return [a * pv // den for a in row]
