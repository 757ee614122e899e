"""Exact-arithmetic sumsets of integer point sets and hull bounds.

Everything is exact: ranks, coordinates and determinants by one
fraction-free elimination, hull membership by a fraction-free phase-1
simplex method, simplicial decompositions in regular position, k-fold
sumsets through a packed-integer kernel, and closed-form cardinality
bounds verified against those sumsets.
"""

from .bounds import (
    THEOREM_TAGS,
    HypothesisError,
    VerificationRecord,
    binom,
    freiman_bound,
    kfold_bound,
    simplex_exact_count,
    verify_theorem,
)
from .decomposition import (
    AdjacencyReport,
    CoverReport,
    Decomposition,
    RegularPositionReport,
    Simplex,
    decompose,
    verify_adjacency_chain,
    verify_cover,
    verify_regular_position,
)
from .explorer import (
    CAMPAIGN_TAGS,
    CampaignReport,
    GeneratorConfig,
    generate_instance,
    generate_nested_chain,
    generate_subsum_instance,
    run_campaign,
)
from .geometry import (
    BarycentricCoords,
    PointSet,
    affine_dimension,
    barycentric,
    conv_contains,
    intrinsic_integer_coords,
    vertex_set,
)
from .hull import hull_facets, hull_volume, lattice_points, simplex_volume
from .partition import (
    DisjointSumReport,
    InducedPartition,
    check_disjoint_sums,
    induce_partition,
)
from .subsums import (
    SubsumInstance,
    SubsumReport,
    endpoints,
    subsum_report,
    sumset_1d,
)
from .sumsets import SumsetResult, a_plus_kb, k_fold, multiset_sum_count, sumset

__all__ = [
    "AdjacencyReport",
    "BarycentricCoords",
    "CAMPAIGN_TAGS",
    "CampaignReport",
    "CoverReport",
    "Decomposition",
    "DisjointSumReport",
    "GeneratorConfig",
    "HypothesisError",
    "InducedPartition",
    "PointSet",
    "RegularPositionReport",
    "Simplex",
    "SubsumInstance",
    "SubsumReport",
    "SumsetResult",
    "THEOREM_TAGS",
    "VerificationRecord",
    "a_plus_kb",
    "affine_dimension",
    "barycentric",
    "binom",
    "check_disjoint_sums",
    "conv_contains",
    "decompose",
    "endpoints",
    "freiman_bound",
    "generate_instance",
    "generate_nested_chain",
    "generate_subsum_instance",
    "hull_facets",
    "hull_volume",
    "induce_partition",
    "intrinsic_integer_coords",
    "k_fold",
    "kfold_bound",
    "lattice_points",
    "multiset_sum_count",
    "run_campaign",
    "simplex_exact_count",
    "simplex_volume",
    "subsum_report",
    "sumset",
    "sumset_1d",
    "verify_adjacency_chain",
    "verify_cover",
    "verify_regular_position",
    "verify_theorem",
    "vertex_set",
]

__version__ = "0.1.0"
