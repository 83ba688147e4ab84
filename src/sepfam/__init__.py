"""Exact combinatorics of separating families of bipartitions.

A family of bipartitions of {1..n} separates the set when every pair of
elements is split apart by some member. This package provides the
predicates, the characteristic-matrix view, the bijection between
maximum-size minimal families and labeled spanning trees, exact counting
formulas with their consistency identities, and a brute-force oracle that
cross-checks all of it on small ground sets.
"""

from .core import (
    FULL_ENUM_MAX_N,
    Bipartition,
    BipartitionFamily,
    CapacityError,
    all_bipartitions,
    bipartition_count,
)
from .counting import (
    IdentityCheck,
    ceil_log2,
    check_matrix_count_identity,
    check_stirling_first_sum,
    check_transpose_symmetry,
    check_trivial_split,
    count_min_ground_families,
    count_min_size_families,
    count_separating,
    count_separating_dual,
    distinct_row_matrix_count,
    is_forced_zero,
    min_ground_size,
    min_separating_size,
    stirling1_unsigned,
    stirling2,
    surjective_sequences,
)
from .matrix import CharMatrix, encode_family
from .oracle import (
    ORACLE_MAX_N,
    CheckResult,
    ValidationReport,
    brute_count_separating,
    brute_minimal_max_families,
    brute_minimal_size_profile,
    cross_validate,
    separating_families,
)
from .tree import (
    TREE_ENUM_MAX_N,
    LabeledGraph,
    edge_cut_family,
    is_spanning_tree,
    minimal_max_families,
    prufer_decode,
    prufer_encode,
    spanning_trees,
    unique_cut_graph,
)

__version__ = "0.1.0"

__all__ = [
    "FULL_ENUM_MAX_N",
    "ORACLE_MAX_N",
    "TREE_ENUM_MAX_N",
    "Bipartition",
    "BipartitionFamily",
    "CapacityError",
    "CharMatrix",
    "CheckResult",
    "IdentityCheck",
    "LabeledGraph",
    "ValidationReport",
    "all_bipartitions",
    "bipartition_count",
    "brute_count_separating",
    "brute_minimal_max_families",
    "brute_minimal_size_profile",
    "ceil_log2",
    "check_matrix_count_identity",
    "check_stirling_first_sum",
    "check_transpose_symmetry",
    "check_trivial_split",
    "count_min_ground_families",
    "count_min_size_families",
    "count_separating",
    "count_separating_dual",
    "cross_validate",
    "distinct_row_matrix_count",
    "edge_cut_family",
    "encode_family",
    "is_forced_zero",
    "is_spanning_tree",
    "min_ground_size",
    "min_separating_size",
    "minimal_max_families",
    "prufer_decode",
    "prufer_encode",
    "separating_families",
    "spanning_trees",
    "stirling1_unsigned",
    "stirling2",
    "surjective_sequences",
    "unique_cut_graph",
]
