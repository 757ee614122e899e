"""Partition of a point set induced by a simplicial decomposition.

Each point of A is assigned to the first simplex (in decomposition
order) whose hull contains it, giving cells A_1, ..., A_n.  With B_i
the vertex set of the i-th simplex, the translated sums A_i + kB_i stay
pairwise disjoint, which is what makes the cell cardinalities add up
inside |A + kB|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import Decomposition
from .geometry import PointSet, barycentric
from .sumsets import a_plus_kb


@dataclass(frozen=True)
class InducedPartition:
    """Cells of A aligned with the decomposition's simplex order.

    Cells may be empty.  Pairwise disjointness is validated here;
    cell-to-simplex membership is guaranteed by induce_partition but
    deliberately not revalidated, so corrupted partitions can be built
    as negative controls for check_disjoint_sums.
    """

    decomposition: Decomposition
    cells: tuple[PointSet, ...]

    def __post_init__(self):
        if len(self.cells) != len(self.decomposition.simplices):
            raise ValueError("cell count differs from simplex count")
        dim = self.decomposition.ground.dim
        seen = set()
        for cell in self.cells:
            if cell.dim != dim:
                raise ValueError("cell dimension differs from ground dimension")
            for p in cell.points:
                if p in seen:
                    raise ValueError(f"point {p} appears in two cells")
                seen.add(p)

    def points(self) -> PointSet:
        """Union of all cells, in cell order."""
        pts = [p for cell in self.cells for p in cell.points]
        return PointSet(self.decomposition.ground.dim, tuple(pts))


def induce_partition(A: PointSet, D: Decomposition) -> InducedPartition:
    """Assign each point of A to the first simplex containing it."""
    if A.dim != D.ground.dim:
        raise ValueError("A and the decomposition ground have different dimensions")
    cells: list[list[tuple[int, ...]]] = [[] for _ in D.simplices]
    simplex_points = [D.simplex_points(i) for i in range(len(D.simplices))]
    for a in A.points:
        for i, S in enumerate(simplex_points):
            if barycentric(S, a) is not None:
                cells[i].append(a)
                break
        else:
            raise ValueError(f"point {a} not covered by any simplex")
    return InducedPartition(
        D, tuple(PointSet(A.dim, tuple(cell)) for cell in cells)
    )


@dataclass(frozen=True)
class DisjointSumReport:
    passed: bool
    pairwise_disjoint: bool
    k: int
    cell_sum_sizes: tuple[int, ...]
    sum_of_cells: int
    whole_sum_size: int
    overlapping_pair: tuple[int, int] | None = None
    witness: tuple | None = None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "pairwise_disjoint": self.pairwise_disjoint,
            "k": self.k,
            "cell_sum_sizes": list(self.cell_sum_sizes),
            "sum_of_cells": self.sum_of_cells,
            "whole_sum_size": self.whole_sum_size,
            "overlapping_pair": list(self.overlapping_pair) if self.overlapping_pair else None,
            "witness": list(self.witness) if self.witness else None,
        }


def check_disjoint_sums(P: InducedPartition, k: int) -> DisjointSumReport:
    """Check pairwise disjointness of the cell sums A_i + kB_i.

    Also reports that the cell sum cardinalities add up to at most
    |A + kB| over the full ground set; both must hold to pass.  Empty
    cells contribute nothing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    D = P.decomposition
    sums: list[tuple[int, set]] = []
    sizes = []
    for i, cell in enumerate(P.cells):
        if len(cell) == 0:
            sizes.append(0)
            continue
        B_i = D.simplex_points(i)
        result = a_plus_kb(cell, B_i, k)
        sums.append((i, set(result.points.points)))
        sizes.append(result.cardinality)
    disjoint = True
    overlapping = None
    witness = None
    for a in range(len(sums)):
        for b in range(a + 1, len(sums)):
            common = sums[a][1] & sums[b][1]
            if common:
                disjoint = False
                overlapping = (sums[a][0], sums[b][0])
                witness = min(common)
                break
        if not disjoint:
            break
    total = sum(sizes)
    A = P.points()
    whole = a_plus_kb(A, D.ground, k).cardinality if len(A) else 0
    passed = disjoint and total <= whole
    return DisjointSumReport(
        passed, disjoint, k, tuple(sizes), total, whole, overlapping, witness
    )
