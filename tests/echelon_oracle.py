"""Gauss–Jordan elimination over Fraction: an independent oracle for ``geometry``.

The same greedy column order as ``geometry._gauss_jordan``, but every
entry is a ``fractions.Fraction`` and each pivot row is divided through.
Every arithmetic step normalizes a fraction by a gcd, which the
library's fraction-free integer elimination avoids, so this lives here,
as the reference the library is checked against, and not in the library.
"""

from fractions import Fraction
from math import lcm


def echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduction to reduced row echelon form; returns (rows, pivot column indices)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _difference_echelon(points):
    p0 = points[0]
    return echelon([[Fraction(p[c] - p0[c]) for p in points[1:]] for c in range(len(p0))])


def affine_basis(points) -> list[int]:
    """Indices of the points that raise the affine rank, in order."""
    _, pivots = _difference_echelon(points)
    return [0] + [j + 1 for j in pivots]


def affine_rank(points) -> int:
    """Dimension of the affine hull of points with int or Fraction coordinates."""
    return len(affine_basis(points)) - 1


def intrinsic_integer_coords(points):
    """Coordinates of p_i - p_0 in the affine basis, scaled by their least common denominator."""
    rows, pivots = _difference_echelon(points)
    rank = len(pivots)
    if rank == len(points[0]):
        return [tuple(p) for p in points], rank
    gammas = [(0,) * rank] + [tuple(row[j] for row in rows[:rank]) for j in range(len(points) - 1)]
    scale = lcm(*(Fraction(c).denominator for g in gammas for c in g))
    return [tuple(int(c * scale) for c in g) for g in gammas], rank


def barycentric(vertices, q) -> tuple[Fraction, ...] | None:
    """Weights of q over affinely independent vertices, or None when q is outside their hull."""
    n = len(vertices)
    rows = [[Fraction(p[c]) for p in vertices] + [Fraction(q[c])] for c in range(len(q))]
    rows.append([Fraction(1)] * (n + 1))
    rows, pivots = echelon(rows)
    if pivots[:n] != list(range(n)):
        raise ValueError("degenerate simplex")
    if n in pivots:
        return None
    sol = tuple(rows[i][n] for i in range(n))
    return None if any(c < 0 for c in sol) else sol


def det(mat) -> int:
    """Determinant of a square integer matrix, by Gaussian elimination over Fractions."""
    n = len(mat)
    m = [[Fraction(v) for v in row] for row in mat]
    d = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            d = -d
        d *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    assert d.denominator == 1
    return d.numerator
