"""Brute-force exact enumeration of sumsets on the integer lattice.

Every cardinality claim in this package is checked against these
enumerations, so they favour obvious correctness: sums of coordinate
tuples, deduplicated by exact value, returned in sorted order for
byte-stable serialization.  The k-fold sum iterates multisets
(combinations with repetition) rather than k-tuples, which cuts the
work from |B|^k to C(|B|+k-1, k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from itertools import combinations_with_replacement
from math import comb

from .geometry import PointSet

# Most coordinate-tuple additions one kB or A + kB enumeration may make,
# the counterpart of ``hull._BOX_CELL_LIMIT``.  Inputs over it are
# refused before any enumeration instead of running for hours.
_SUM_WORK_LIMIT = 20_000_000


def _check_work(B: PointSet, k: int, a_size: int, what: str) -> None:
    """Refuse a sum whose work (k + |A|) * C(|B|+k-1, k) passes the limit.

    Each of the C(|B|+k-1, k) multisets of B is a k-term sum, and A + kB
    adds |A| sums per point of kB (``a_size`` is 0 for kB alone).
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


def sumset(X: PointSet, Y: PointSet) -> SumsetResult:
    """The exact sumset {x + y : x in X, y in Y}."""
    if len(X) == 0 or len(Y) == 0:
        raise ValueError("sumset operands must be nonempty")
    _require_same_dim(X, Y)
    sums = {tuple(a + b for a, b in zip(x, y)) for x in X.points for y in Y.points}
    pts = PointSet(X.dim, tuple(sorted(sums)))
    return SumsetResult(pts, {"op": "sumset", "left": X, "right": Y})


def k_fold(B: PointSet, k: int) -> SumsetResult:
    """The k-fold sumset B + ... + B (k copies), enumerated over multisets."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(B) == 0:
        raise ValueError("k-fold sum of an empty set")
    _check_work(B, k, 0, f"{k}B")
    sums = set()
    for combo in combinations_with_replacement(B.points, k):
        sums.add(tuple(sum(cs) for cs in zip(*combo)))
    pts = PointSet(B.dim, tuple(sorted(sums)))
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
