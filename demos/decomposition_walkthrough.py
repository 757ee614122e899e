"""
Walkthrough of simplicial decomposition and the induced partition.

Usage:
    python3 demos/decomposition_walkthrough.py

Takes one planar 6-point ground set, decomposes its hull into
triangles in regular position, certifies them (facet gluing plus the
volume equation, which together prove the exact cover and that every
two triangles meet in a common face), checks the chained adjacency,
then partitions a contained set A by first containing
cell and checks that the per-cell sums A_i + kB_i stay disjoint.
"""

from __future__ import annotations

from sumsethull.decomposition import (
    decompose,
    verify_adjacency_chain,
    verify_cover,
    verify_regular_position,
)
from sumsethull.geometry import PointSet
from sumsethull.partition import check_disjoint_sums, induce_partition
from sumsethull.sumsets import a_plus_kb


def main() -> None:
    B = PointSet(2, ((0, 0), (4, 0), (0, 4), (4, 4), (2, 1), (1, 3)))
    print(f"ground set B = {list(B.points)}")
    D = decompose(B)
    print(f"decomposed into {len(D.simplices)} triangles:")
    for i, s in enumerate(D.simplices):
        pts = [B.points[j] for j in s.vertex_indices]
        print(f"  S_{i}: indices {list(s.vertex_indices)} -> {pts}")
    print(f"adjacency chain: {[list(pair) for pair in D.adjacency]}")
    print()

    reg = verify_regular_position(D)
    print(f"facet gluing: {'ok' if reg.passed else f'FAIL at facet {reg.face} of simplices {reg.simplices}'}")
    cover = verify_cover(D)
    print(f"volume: total triangle area {cover.total_simplex_volume} vs hull area {cover.hull_volume}")
    print(f"cover and pairwise common faces: {'ok' if cover.passed else 'FAIL'}")
    adj = verify_adjacency_chain(D)
    print(f"adjacency chain: {'ok' if adj.passed else 'FAIL'}")
    print()

    A = PointSet(2, ((0, 0), (1, 1), (2, 2), (3, 1), (1, 2), (3, 3)))
    P = induce_partition(A, D)
    print(f"A = {list(A.points)} partitioned by first containing cell:")
    for i, cell in enumerate(P.cells):
        print(f"  A_{i}: {list(cell.points)}")
    print()

    for k in (1, 2):
        rep = check_disjoint_sums(P, k)
        whole = a_plus_kb(A, B, k).cardinality
        print(
            f"k={k}: cell sums {list(rep.cell_sum_sizes)}, total {rep.sum_of_cells} "
            f"<= |A+kB| = {whole} -> {'ok' if rep.passed else 'FAIL'}"
        )


if __name__ == "__main__":
    main()
