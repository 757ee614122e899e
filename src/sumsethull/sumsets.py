"""Exact sumsets on the integer lattice through one packed-integer kernel.

Every point is packed into one Python int (Kronecker substitution).
Each operand is shifted by its per-coordinate minimum, and coordinate c
gets the stride W^(d-1-c), with W larger than the summed coordinate
range.  A sum of two codes then never carries from one coordinate into
the next, so adding codes adds points, equal codes are equal points,
and integer order is lexicographic tuple order: the deduplicated codes,
sorted, decode straight into the sorted sums.

``sumset`` adds every pair of codes; ``k_fold`` builds kB by iterated
deduplication, S_1 = B and S_{j+1} = S_j + B, so it never enumerates the
C(|B|+k-1, k) multisets of B.  Results are exact and returned in sorted
order for byte-stable serialization; the tests check them against a
brute-force multiset enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from itertools import repeat
from math import comb
from operator import add, floordiv, mod, mul, sub

from .geometry import PointSet

# Most point additions one kB or A + kB computation may make, the
# counterpart of ``hull._BOX_CELL_LIMIT``.  Inputs over it are refused
# before any enumeration instead of running for hours.
_SUM_WORK_LIMIT = 20_000_000


def _check_work(B: PointSet, k: int, a_size: int, what: str) -> None:
    """Refuse a sum whose work (k + |A|) * C(|B|+k-1, k) passes the limit.

    The estimate bounds the kernel's additions.  Step j of the iterated
    sum adds |B| codes to each of |S_j| <= C(|B|+j-1, j) sums, and by the
    hockey-stick identity |B| * sum_{j<k} C(|B|+j-1, j) equals
    |B| * C(|B|+k-1, k-1) = k * C(|B|+k-1, k), so kB costs fewer than
    k * C(|B|+k-1, k) additions; A + kB adds |A| * |kB| more
    (``a_size`` is 0 for kB alone).  This was also the cost of the
    multiset enumeration the kernel replaced, so the limit refuses the
    same inputs as before.
    """
    if min(k, len(B) - 1) > 1000:
        # C(|B|+k-1, k) >= 2^min(k, |B|-1): far over, and slow to count exactly
        raise ValueError(f"{what} with |B| = {len(B)} is over the limit of {_SUM_WORK_LIMIT:,} sums")
    work = (k + a_size) * multiset_sum_count(B, k)
    if work > _SUM_WORK_LIMIT:
        raise ValueError(
            f"{what} needs about {Decimal(work):.2e} sums, over the limit of {_SUM_WORK_LIMIT:,}"
        )


@dataclass(frozen=True)
class SumsetResult:
    """A computed sumset with its provenance.

    ``points`` holds the deduplicated sums sorted lexicographically;
    ``provenance`` records the operands and the repetition count used.
    """

    points: PointSet
    provenance: dict = field(compare=False)

    @property
    def cardinality(self) -> int:
        return len(self.points)


def _require_same_dim(X: PointSet, Y: PointSet) -> None:
    if X.dim != Y.dim:
        raise ValueError(f"dimension mismatch: {X.dim} vs {Y.dim}")


def _columns(P: PointSet) -> tuple[list[tuple[int, ...]], tuple[int, ...], tuple[int, ...]]:
    """The coordinate columns of a nonempty point set, their minima and ranges."""
    cols = list(zip(*P.points))
    lo = tuple(map(min, cols))
    return cols, lo, tuple(max(c) - m for c, m in zip(cols, lo))


def _pack(cols: list[tuple[int, ...]], lo: tuple[int, ...], W: int) -> list[int]:
    """The codes of the points whose columns are ``cols``, shifted by ``lo``, in base W."""
    codes = repeat(0)
    for col, m in zip(cols, lo):
        codes = map(add, map(mul, codes, repeat(W)), map(sub, col, repeat(m)))
    return list(codes)


def _add_codes(X: list[int] | set[int], Y: list[int] | set[int]) -> set[int]:
    """Every sum x + y of two codes, deduplicated."""
    if len(X) < len(Y):
        X, Y = Y, X
    sums: set[int] = set()
    for y in Y:
        sums.update(map(y.__add__, X))
    return sums


def _unpack(codes: set[int], lo: tuple[int, ...], W: int) -> PointSet:
    """The sorted point set of ``codes`` (emptied), shifted back by ``lo``."""
    ordered = list(codes)
    codes.clear()  # free the hash table before the tuples are built
    ordered.sort()
    d = len(lo)
    columns = []
    for c, m in enumerate(lo):
        stride = W ** (d - 1 - c)
        col = ordered if stride == 1 else map(floordiv, ordered, repeat(stride))
        if c:
            col = map(mod, col, repeat(W))
        columns.append(map(add, col, repeat(m)))
    return PointSet(d, tuple(zip(*columns)))


def sumset(X: PointSet, Y: PointSet) -> SumsetResult:
    """The exact sumset {x + y : x in X, y in Y}."""
    if len(X) == 0 or len(Y) == 0:
        raise ValueError("sumset operands must be nonempty")
    _require_same_dim(X, Y)
    cols_x, lo_x, range_x = _columns(X)
    cols_y, lo_y, range_y = _columns(Y)
    W = max(map(add, range_x, range_y)) + 1
    sums = _add_codes(_pack(cols_x, lo_x, W), _pack(cols_y, lo_y, W))
    pts = _unpack(sums, tuple(map(add, lo_x, lo_y)), W)
    return SumsetResult(pts, {"op": "sumset", "left": X, "right": Y})


def k_fold(B: PointSet, k: int) -> SumsetResult:
    """The k-fold sumset B + ... + B (k copies), by iterated sums."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(B) == 0:
        raise ValueError("k-fold sum of an empty set")
    _check_work(B, k, 0, f"{k}B")
    cols, lo, ranges = _columns(B)
    W = k * max(ranges) + 1
    codes = _pack(cols, lo, W)
    sums = set(codes)
    for _ in range(k - 1):
        sums = _add_codes(sums, codes)
    pts = _unpack(sums, tuple(k * m for m in lo), W)
    return SumsetResult(pts, {"op": "k_fold", "base": B, "k": k})


def multiset_sum_count(B: PointSet, k: int) -> int:
    """Number of size-k multisets of B, i.e. C(|B|+k-1, k).

    Equals |kB| exactly when every element of kB has a unique multiset
    representation (affinely independent B); the gap between the two
    counts how many collisions repeated addition produced.
    """
    return comb(len(B) + k - 1, k)


def a_plus_kb(A: PointSet, B: PointSet, k: int) -> SumsetResult:
    """The sumset A + kB, with provenance recording all three operands."""
    _require_same_dim(A, B)
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_work(B, k, len(A), f"A + {k}B")
    kb = k_fold(B, k)
    res = sumset(A, kb.points)
    return SumsetResult(res.points, {"op": "a_plus_kb", "a": A, "b": B, "k": k})
