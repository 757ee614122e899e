"""Phase-1 simplex method over Fraction: an independent oracle for ``exactlp``.

The same method as ``exactlp.feasible_nonneg`` (artificial variables,
Bland's rule), but every tableau entry is a ``fractions.Fraction`` and
each pivot divides its row through.  Every arithmetic step normalizes a
fraction by a gcd, which the library's fraction-free integer tableau
avoids, so this lives here, as the reference the library is checked
against, and not in the library.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def feasible_nonneg(rows, rhs) -> bool:
    """True iff there is x >= 0 with rows . x = rhs, decided over Fraction."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if m == 0:
        return True
    n = len(rows[0])

    # Tableau rows: n structural columns, m artificial columns, then b >= 0.
    tab: list[list[Fraction]] = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if len(row) != n:
            raise ValueError("ragged coefficient matrix")
        r = [Fraction(v) for v in row]
        b = Fraction(b)
        if b < 0:
            r = [-v for v in r]
            b = -b
        art = [_ZERO] * m
        art[i] = Fraction(1)
        tab.append(r + art + [b])

    basis = list(range(n, n + m))
    width = n + m + 1

    # Reduced costs for the phase-1 objective (cost 1 on artificials):
    # z[j] = c_j - sum_i tab[i][j], and the tracked objective value.
    z = [_ZERO] * width
    for j in range(width):
        col_sum = sum((tab[i][j] for i in range(m)), _ZERO)
        cost = _ZERO if j < n else Fraction(1)
        z[j] = cost - col_sum
    z[-1] = -sum((tab[i][-1] for i in range(m)), _ZERO)  # negated objective

    max_pivots = 1000 + 50 * (n + m)
    for _ in range(max_pivots):
        enter = -1
        for j in range(n + m):
            if z[j] < 0:
                enter = j
                break
        if enter < 0:
            return z[-1] == 0
        # Ratio test; ties go to the smallest basic variable index (Bland).
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; invariant violated")
        pv = tab[leave][enter]
        tab[leave] = [v / pv for v in tab[leave]]
        prow = tab[leave]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], prow)]
        if z[enter] != 0:
            f = z[enter]
            z = [a - f * b for a, b in zip(z, prow)]
        basis[leave] = enter
    raise RuntimeError("pivot limit exceeded")
