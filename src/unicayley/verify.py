"""The verification suite behind the verify command.

Each check confirms a count or a lemma by an independent method: a closed
form against the enumeration oracle, the recursion against the paper's
forms, the singular-shift criterion against the determinant on every
matrix, or the rank-class reduction against brute-force common neighbors.
A check takes (n, field, seed, budget) and returns (passed, detail).
Every shifted count goes through matrices._transfer_counts, charged by
matrices._oracle_terms, and every per-matrix scan through matrices.scan_space,
all looked up when they run, so a wrapper on any of them sees every check.
"""

from __future__ import annotations

import random

from . import matrices
from .census import (
    derangements_formula,
    rank1_intersection_formula,
    rank2_case_formulas,
    rank2_intersection_formula,
    rank_counts,
)
from .matrices import (
    Matrix,
    first_rows,
    index_to_matrix,
    rank2_case_decomposition_oracle,
    singular_shift_criterion,
)

RANK_REDUCTION_SAMPLES = 50


def _check_rank1_singularity(n, field, seed, budget):
    add = field.add_table
    rows = first_rows(n, field)
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
    total = field.q ** (n * n)
    if witnesses:
        first = Matrix._wrap(n, witnesses[0], field).to_literal()
        return False, (
            f"{len(witnesses)} of {total} matrices split the equivalence; "
            f"first witness {first}"
        )
    return True, f"equivalence holds for all {total} matrices"


def _recursion_note(r, n, field, paper):
    """Compare the recursion with the paper's rank-r form: (agrees, note)."""
    rec = rank_counts(n, field, r, "formula")[0]
    if rec == paper:
        return True, "; recursion agrees"
    return False, f"; recursion gives {rec}"


def _check_rank1_count(n, field, seed, budget):
    lhs = rank1_intersection_formula(n, field.q)
    rhs = rank_counts(n, field, 1, "oracle", budget=budget)[0]
    rec_ok, note = _recursion_note(1, n, field, lhs)
    return lhs == rhs and rec_ok, f"formula {lhs} vs oracle {rhs}{note}"


def _check_rank2_count(n, field, seed, budget):
    lhs = rank2_intersection_formula(n, field.q)
    rhs = rank_counts(n, field, 2, "oracle", budget=budget)[0]
    rec_ok, note = _recursion_note(2, n, field, lhs)
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
        rhs = rank_counts(i, field, i, "oracle", budget=budget)[0]
        if lhs != rhs:
            return False, f"step {i}: recurrence {lhs} vs oracle {rhs}"
    return True, f"recurrence steps 1..{n} hold"


def _check_rank_reduction(n, field, seed, budget):
    size = field.q ** (n * n)
    rng = random.Random(seed)
    pairs = []
    for _ in range(RANK_REDUCTION_SAMPLES):
        i = rng.randrange(size)
        j = rng.randrange(size - 1)
        if j >= i:
            j += 1
        pairs.append((index_to_matrix(i, n, field), index_to_matrix(j, n, field)))
    # common_neighbors_bruteforce for every pair, in one call for all shifts
    brutes = matrices._transfer_counts([b - a for a, b in pairs])
    for trial, ((a, b), brute) in enumerate(zip(pairs, brutes)):
        reduced = rank_counts(n, field, (a - b).rank(), "formula")[0]
        if brute != reduced:
            return False, (
                f"trial {trial}: pair ({a.to_literal()}, {b.to_literal()}) "
                f"brute {brute} vs rank-class {reduced}"
            )
    return True, f"{RANK_REDUCTION_SAMPLES} sampled pairs agree"


# Each check with its charge at (n, q) as check_budget terms, largest first:
# the matrices its scans visit, and matrices._oracle_terms for its transfers.
# The verify command charges their sum before the first check runs, and
# `--check all` runs them in this order.  perfbench/checks.py::CHECK_NAMES_ALL
# pins the checks that `--check all` must report, and the benchmark marks any
# other output incorrect: a new check stays out of `all` until it is named there.
CHECKS = {
    "rank1-singularity": (_check_rank1_singularity, lambda n, q: [(1, q, n * n)]),
    "rank1-count": (_check_rank1_count, lambda n, q: matrices._oracle_terms(1, n, q)),
    "rank2-count": (_check_rank2_count, lambda n, q: matrices._oracle_terms(1, n, q)
                    + ([(1, q, n * n)] if n >= 3 else [])),  # the case split
    "recurrence": (_check_recurrence, lambda n, q: (
        term for i in range(n, 0, -1) for term in matrices._oracle_terms(1, i, q))),
    "rank-reduction": (_check_rank_reduction, lambda n, q: matrices._oracle_terms(
        RANK_REDUCTION_SAMPLES, n, q)),
}
