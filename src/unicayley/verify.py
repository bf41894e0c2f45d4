"""The verification suite behind the verify command.

Each check confirms a count or a lemma by an independent method: a closed
form against the enumeration oracle, the recursion against the paper's
forms, the singular-shift criterion against the determinant on every
matrix, or the rank-class reduction against brute-force common neighbors.
A check takes (n, field, seed, budget) and returns (passed, detail).
Every scan goes through matrices.scan_space, looked up when it runs, so a
wrapper installed there sees the scans of every check.
"""

from __future__ import annotations

import random
from itertools import product

from . import matrices
from .census import (
    common_neighbors_by_rank,
    derangements_formula,
    intersection_count_formula,
    rank1_intersection_formula,
    rank2_case_formulas,
    rank2_intersection_formula,
)
from .matrices import (
    Matrix,
    _shifted_unit_counts,
    index_to_matrix,
    intersection_count_oracle,
    matrix_space_size,
    rank2_case_decomposition_oracle,
    singular_shift_criterion,
)

RANK_REDUCTION_SAMPLES = 50


def _check_rank1_singularity(n, field, seed, budget):
    add = field.add_table
    rows = [t[::-1] for t in product(range(field.q), repeat=n)]  # index order
    witnesses = []

    def visit(tail, dets):
        # det is linear in row 0, so det(A + E_11) = det(A) + det of the
        # first row (1, 0, ..., 0), entry 1 of the block
        c00 = dets[1]
        for row, det in zip(rows, dets):
            lhs = det != 0 and add[det][c00] == 0
            flat = row + tail  # entries from the scan: no need to check them
            if lhs != singular_shift_criterion(Matrix._wrap(n, flat, field)):
                witnesses.append(flat)

    matrices.scan_space(n, field, visit)
    total = matrix_space_size(n, field)
    if witnesses:
        first = Matrix._wrap(n, witnesses[0], field).to_literal()
        return False, (
            f"{len(witnesses)} of {total} matrices split the equivalence; "
            f"first witness {first}"
        )
    return True, f"equivalence holds for all {total} matrices"


def _recursion_note(r, n, q, paper):
    """Compare the recursion with the paper's rank-r form: (agrees, note)."""
    rec = intersection_count_formula(r, n, q)
    if rec == paper:
        return True, "; recursion agrees"
    return False, f"; recursion gives {rec}"


def _check_rank1_count(n, field, seed, budget):
    lhs = rank1_intersection_formula(n, field.q)
    rhs = intersection_count_oracle(1, n, field, budget=budget)
    rec_ok, note = _recursion_note(1, n, field.q, lhs)
    return lhs == rhs and rec_ok, f"formula {lhs} vs oracle {rhs}{note}"


def _check_rank2_count(n, field, seed, budget):
    lhs = rank2_intersection_formula(n, field.q)
    rhs = intersection_count_oracle(2, n, field, budget=budget)
    rec_ok, note = _recursion_note(2, n, field.q, lhs)
    if lhs != rhs or not rec_ok:
        return False, f"formula {lhs} vs oracle {rhs}{note}"
    if n < 3:
        return True, f"formula {lhs} == oracle {rhs}{note}"
    cases = rank2_case_decomposition_oracle(n, field, budget=budget)
    expected = rank2_case_formulas(n, field.q)
    if cases != expected or sum(cases) != rhs:
        return False, (
            f"case split oracle {cases} vs formulas {expected}, total {rhs}"
        )
    return True, f"formula {lhs} == oracle {rhs}{note}; case split {cases} matches"


def _check_recurrence(n, field, seed, budget):
    for i in range(1, n + 1):
        lhs = derangements_formula(i, field.q)
        rhs = intersection_count_oracle(i, i, field, budget=budget)
        if lhs != rhs:
            return False, f"step {i}: recurrence {lhs} vs oracle {rhs}"
    return True, f"recurrence steps 1..{n} hold"


def _check_rank_reduction(n, field, seed, budget):
    size = matrix_space_size(n, field)
    rng = random.Random(seed)
    pairs = []
    for _ in range(RANK_REDUCTION_SAMPLES):
        i = rng.randrange(size)
        j = rng.randrange(size - 1)
        if j >= i:
            j += 1
        pairs.append((index_to_matrix(i, n, field), index_to_matrix(j, n, field)))
    # common_neighbors_bruteforce for every pair, in one pass over the shifts
    brutes = _shifted_unit_counts([b - a for a, b in pairs])
    for trial, ((a, b), brute) in enumerate(zip(pairs, brutes)):
        reduced = common_neighbors_by_rank(a, b)
        if brute != reduced:
            return False, (
                f"trial {trial}: pair ({a.to_literal()}, {b.to_literal()}) "
                f"brute {brute} vs rank-class {reduced}"
            )
    return True, f"{RANK_REDUCTION_SAMPLES} sampled pairs agree"


# Each check with the number of matrices (or matrix-shift pairs) its scans
# visit at (n, q), as check_budget terms, largest first; the verify command
# charges their sum before the first check runs, and `--check all` runs them
# in this order.  perfbench/checks.py::CHECK_NAMES_ALL pins the checks that
# `--check all` must report, and the benchmark marks any other output
# incorrect: a new check stays out of `all` until that list names it.
CHECKS = {
    "rank1-singularity": (_check_rank1_singularity, lambda n, q: [(1, q, n * n)]),
    "rank1-count": (_check_rank1_count, lambda n, q: [(1, q, n * n)]),
    "rank2-count": (_check_rank2_count,
                    lambda n, q: [(2 if n >= 3 else 1, q, n * n)]),
    "recurrence": (_check_recurrence,
                   lambda n, q: ((1, q, i * i) for i in range(n, 0, -1))),
    "rank-reduction": (_check_rank_reduction,
                       lambda n, q: [(RANK_REDUCTION_SAMPLES, q, n * n)]),
}
