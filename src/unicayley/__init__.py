"""Exact counting and strong-regularity analysis for unitary Cayley graphs
of full matrix algebras over finite fields.

Vertices are the n x n matrices over GF(q); edges join matrices whose
difference is invertible.  The package pairs every closed-form count with an
independent brute-force enumeration oracle and culminates in a decision
procedure for strong regularity.

Each public name is imported from its home module on first access (PEP
562), so importing the package, or a command-line call that needs only the
closed forms, loads no more of it than it uses.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "census": (
        "CensusRecord",
        "SrgReport",
        "SrgWitness",
        "derangements_formula",
        "gl_order",
        "intersection_count_formula",
        "rank1_intersection_formula",
        "rank2_case_formulas",
        "rank2_intersection_formula",
        "srg_decide",
        "srg_parameters_n2",
    ),
    "errors": ("BudgetExceededError", "DEFAULT_BUDGET"),
    "fields": ("FieldSpec", "is_irreducible", "make_field"),
    "graph": (
        "CayleyGraph",
        "PairwiseSrgResult",
        "adjacent",
        "common_neighbors_bruteforce",
        "common_neighbors_by_rank",
        "explicit_graph_build",
    ),
    "matrices": (
        "Matrix",
        "canonical_rank_matrix",
        "enumerate_matrices",
        "identity_matrix",
        "index_to_matrix",
        "intersection_count_oracle",
        "matrix_from_rows",
        "matrix_space_size",
        "parse_matrix",
        "rank2_case_decomposition_oracle",
        "singular_shift_criterion",
        "zero_matrix",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
