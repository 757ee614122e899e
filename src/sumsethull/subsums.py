"""Leave-one-out sums, in any dimension, and the endpoint chain bound.

For nonempty finite sets A_1, ..., A_k (k >= 2) write S for the
complete sum A_1 + ... + A_k and S_i for the sum leaving A_i out.
S_i' adds back to S_i only the extremal points of A_i (for an integer
set, its two endpoints), and S' is the union of the S_i'.  The chain

    |S| >= |S'| >= (sum_i |S_i| - 1) / (k - 1)

is verified for integer sets with the right side kept as an exact
rational; the explorer's ``question1`` runs the same sums on point sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

from .geometry import _exact_int
from .sumsets import _SUM_WORK_LIMIT


def endpoints(A) -> tuple[int, ...]:
    """The smallest and largest elements; a single element stays alone."""
    values = sorted(set(A))
    if not values:
        raise ValueError("empty integer set has no endpoints")
    if len(values) == 1:
        return (values[0],)
    return (values[0], values[-1])


def sumset_1d(X, Y) -> tuple[int, ...]:
    """All pairwise sums of two nonempty integer sets, sorted."""
    return tuple(sorted({x + y for x in X for y in Y}))


@dataclass(frozen=True)
class SubsumInstance:
    """k nonempty finite integer sets, k >= 2."""

    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        normalized = tuple(tuple(sorted({_exact_int(v, "set element") for v in s})) for s in self.sets)
        if len(normalized) < 2:
            raise ValueError("k must be >= 2 (bound divides by k-1)")
        for s in normalized:
            if not s:
                raise ValueError("every set must be nonempty")
        object.__setattr__(self, "sets", normalized)

    @property
    def k(self) -> int:
        return len(self.sets)

    def to_dict(self) -> dict:
        return {"sets": [list(s) for s in self.sets]}

    @classmethod
    def from_dict(cls, data: dict) -> "SubsumInstance":
        return cls(tuple(tuple(s) for s in data["sets"]))


@dataclass(frozen=True)
class SubsumReport:
    s_size: int
    s_prime_size: int
    s_i_sizes: tuple[int, ...]
    s_i_prime_sizes: tuple[int, ...]
    bound: Fraction
    chain_satisfied: bool

    def to_dict(self) -> dict:
        return {
            "s_size": self.s_size,
            "s_prime_size": self.s_prime_size,
            "s_i_sizes": list(self.s_i_sizes),
            "s_i_prime_sizes": list(self.s_i_prime_sizes),
            "bound": str(self.bound),
            "chain_satisfied": self.chain_satisfied,
        }


def _sum_work(sets: tuple[tuple[int, ...], ...]) -> int:
    """An upper bound on the additions ``subsum_report`` makes.

    ``sumset_1d(X, Y)`` makes |X| * |Y| additions, and |X + Y| is at most
    min(|X| * |Y|, range(X) + range(Y) + 1).  The bound adds that count
    over the prefix, suffix and leave-one-out sums of ``_leave_one_out``,
    tracking each sum as (size bound, range).
    """
    work = 0

    def plus(x, y):
        nonlocal work
        work += x[0] * y[0]
        return min(x[0] * y[0], x[1] + y[1] + 1), x[1] + y[1]

    shapes = [(len(s), s[-1] - s[0]) for s in sets]
    prefix = [(1, 0)]
    for x in shapes:
        prefix.append(plus(prefix[-1], x))
    suffix = [(1, 0)]
    for x in reversed(shapes):
        suffix.append(plus(x, suffix[-1]))
    suffix.reverse()
    for i, (size, rng) in enumerate(shapes):
        plus(plus(prefix[i], suffix[i + 1]), (min(size, 2), rng))
    return work


def _leave_one_out(sets, add, completion, zero) -> SubsumReport:
    """|S|, every |S_i| and |S_i'|, and |S'|, with the chain tested.

    ``add`` sums two sets, ``completion(A_i)`` is what S_i' adds back to
    S_i, and ``zero`` is the identity of ``add``.  Leave-one-out sums
    come from prefix/suffix partial sums, so the whole report costs
    O(k) calls of ``add``.
    """
    k = len(sets)
    # prefix[i] = A_1 + ... + A_i, suffix[i] = A_i + ... + A_k
    prefix = list(accumulate(sets, add, initial=zero))
    suffix = list(accumulate(reversed(sets), lambda acc, A: add(A, acc), initial=zero))[::-1]
    s_i_sizes = []
    s_i_prime_sizes = []
    s_prime = set()
    for i in range(k):
        S_i = add(prefix[i], suffix[i + 1])
        S_i_prime = add(S_i, completion(sets[i]))
        s_i_sizes.append(len(S_i))
        s_i_prime_sizes.append(len(S_i_prime))
        s_prime.update(S_i_prime)
    S = prefix[k]
    bound = Fraction(sum(s_i_sizes) - 1, k - 1)
    chain = len(S) >= len(s_prime) and Fraction(len(s_prime)) >= bound
    return SubsumReport(
        len(S), len(s_prime), tuple(s_i_sizes), tuple(s_i_prime_sizes), bound, chain
    )


def subsum_report(instance: SubsumInstance) -> SubsumReport:
    """Compute S, S', all S_i and S_i' by brute force and test the chain.

    An instance whose estimated work passes ``_SUM_WORK_LIMIT`` is
    refused before any sum.
    """
    sets = instance.sets
    work = _sum_work(sets)
    if work > _SUM_WORK_LIMIT:
        raise ValueError(
            f"subsum report needs about {Decimal(work):.2e} sums, over the limit of {_SUM_WORK_LIMIT:,}"
        )
    return _leave_one_out(sets, sumset_1d, endpoints, (0,))
