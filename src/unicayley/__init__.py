"""Exact counting and strong-regularity analysis for unitary Cayley graphs
of full matrix algebras over finite fields.

Vertices are the n x n matrices over GF(q); edges join matrices whose
difference is invertible.  The package pairs every closed-form count with an
independent brute-force enumeration oracle and culminates in a decision
procedure for strong regularity.
"""

from .census import (
    CensusRecord,
    derangements_formula,
    gl_order,
    intersection_count_formula,
    intersection_count_oracle,
    rank1_intersection_formula,
    rank2_case_decomposition_oracle,
    rank2_case_formulas,
    rank2_intersection_formula,
    srg_parameters_n2,
)
from .errors import DEFAULT_BUDGET, BudgetExceededError
from .fields import FieldSpec, is_irreducible, make_field
from .graph import (
    CayleyGraph,
    PairwiseSrgResult,
    SrgReport,
    SrgWitness,
    adjacent,
    common_neighbors_bruteforce,
    common_neighbors_by_rank,
    explicit_graph_build,
    srg_decide,
)
from .matrices import (
    Matrix,
    canonical_rank_matrix,
    enumerate_matrices,
    identity_matrix,
    index_to_matrix,
    matrix_from_rows,
    matrix_space_size,
    parse_matrix,
    singular_shift_criterion,
    zero_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CayleyGraph",
    "CensusRecord",
    "DEFAULT_BUDGET",
    "FieldSpec",
    "Matrix",
    "PairwiseSrgResult",
    "SrgReport",
    "SrgWitness",
    "adjacent",
    "canonical_rank_matrix",
    "common_neighbors_bruteforce",
    "common_neighbors_by_rank",
    "derangements_formula",
    "enumerate_matrices",
    "explicit_graph_build",
    "gl_order",
    "identity_matrix",
    "index_to_matrix",
    "intersection_count_formula",
    "intersection_count_oracle",
    "is_irreducible",
    "make_field",
    "matrix_from_rows",
    "matrix_space_size",
    "parse_matrix",
    "rank1_intersection_formula",
    "rank2_case_decomposition_oracle",
    "rank2_case_formulas",
    "rank2_intersection_formula",
    "singular_shift_criterion",
    "srg_decide",
    "srg_parameters_n2",
    "zero_matrix",
]
