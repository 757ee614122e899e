"""Brute-force sumset enumeration: an independent oracle for ``sumsets``.

Points are coordinate tuples added component by component; the k-fold
sum enumerates the C(|B|+k-1, k) multisets of B (combinations with
repetition) and sums each one.  That is far slower than the library's
packed-integer kernel, so it lives here, as the reference the kernel is
checked against, and not in the library.
"""

from itertools import combinations_with_replacement


def sumset(X, Y) -> tuple[tuple[int, ...], ...]:
    """{x + y : x in X, y in Y}, sorted."""
    return tuple(sorted({tuple(a + b for a, b in zip(x, y)) for x in X for y in Y}))


def k_fold(B, k: int) -> tuple[tuple[int, ...], ...]:
    """B + ... + B (k copies), sorted, one sum per multiset of B."""
    return tuple(sorted({
        tuple(sum(cs) for cs in zip(*combo))
        for combo in combinations_with_replacement(B, k)
    }))


def a_plus_kb(A, B, k: int) -> tuple[tuple[int, ...], ...]:
    """A + kB, sorted."""
    return sumset(A, k_fold(B, k))
