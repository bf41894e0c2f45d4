"""Acceptance gate: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output of a failing run) before asserting, so a red criterion still
reports itself.
"""

import random

from unicayley import (
    canonical_rank_matrix,
    common_neighbors_bruteforce,
    derangements_formula,
    explicit_graph_build,
    gl_order,
    index_to_matrix,
    make_field,
    rank1_intersection_formula,
    rank2_case_decomposition_oracle,
    rank2_case_formulas,
    rank2_intersection_formula,
    rank_counts,
    srg_decide,
)
from unicayley.cli import main

from helpers import all_matrices


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE criterion {number} [{name}]: {status}{suffix}")
    return ok


def field_of(q):
    p, k = (q, 1) if q in (2, 3, 5) else {4: (2, 2), 9: (3, 2)}[q]
    return make_field(p, k)


def test_criterion_1_srg_parameters_n2():
    ok = True
    details = []
    for q in (2, 3, 4, 5):
        expected = (
            q ** 4,
            q ** 4 - q ** 3 - q ** 2 + q,
            q ** 4 - 2 * q ** 3 - q ** 2 + 3 * q,
            q ** 4 - 2 * q ** 3 + q,
        )
        report_q = srg_decide(2, field_of(q))
        good = report_q.is_srg and report_q.parameters == expected
        ok = ok and good
        details.append(f"q={q}: {report_q.parameters}")
    assert report(1, "2x2 strong regularity with exact parameters", ok,
                  "; ".join(details))


def test_criterion_2_n3_never_srg():
    ok = True
    details = []
    for q in (2, 3):
        rep = srg_decide(3, field_of(q))
        mu1 = rank1_intersection_formula(3, q)
        mu2 = rank2_intersection_formula(3, q)
        good = (
            not rep.is_srg
            and rep.mu_by_rank[1] == mu1
            and rep.mu_by_rank[2] == mu2
            and mu1 != mu2
        )
        ok = ok and good
        details.append(f"q={q}: mu1={rep.mu_by_rank[1]} mu2={rep.mu_by_rank[2]}")
    assert report(2, "3x3 graphs are not strongly regular", ok, "; ".join(details))


def test_criterion_3_rank1_count_formula_vs_oracle():
    cases = [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]
    ok = True
    for n, q in cases:
        formula = rank1_intersection_formula(n, q)
        oracle = rank_counts(n, field_of(q), 1, "oracle")[0]
        ok = ok and formula == oracle
    assert report(3, "rank-1 shift count, formula == oracle", ok,
                  f"{len(cases)} cases")


def test_criterion_4_rank2_count_and_case_split():
    cases = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
    ok = True
    for n, q in cases:
        formula = rank2_intersection_formula(n, q)
        oracle = rank_counts(n, field_of(q), 2, "oracle")[0]
        ok = ok and formula == oracle
    for q in (2, 3):
        split = rank2_case_decomposition_oracle(3, field_of(q))
        expected = rank2_case_formulas(3, q)
        total = rank_counts(3, field_of(q), 2, "oracle")[0]
        ok = ok and split == expected and sum(split) == total
    assert report(4, "rank-2 shift count and its case split", ok,
                  f"{len(cases)} totals, 2 case splits")


def test_criterion_5_derangement_recurrence_vs_oracle():
    cases = [(n, q) for n in (1, 2, 3) for q in (2, 3)]
    cases += [(n, q) for n in (1, 2) for q in (4, 5)]
    ok = True
    for n, q in cases:
        ok = ok and derangements_formula(n, q) == rank_counts(
            n, field_of(q), n, "oracle"
        )[0]
    assert report(5, "derangement recurrence with base case 1", ok,
                  f"{len(cases)} cases")


def test_criterion_6_rank_class_law():
    ok = True
    for q in (2, 3):
        field = field_of(q)
        size = field.q ** 4
        expected = {r: rank_counts(2, field, r, "oracle")[0] for r in (1, 2)}
        for i in range(size):
            a = index_to_matrix(i, 2, field)
            for j in range(size):
                if i == j:
                    continue
                b = index_to_matrix(j, 2, field)
                r = (a - b).rank()
                if common_neighbors_bruteforce(a, b) != expected[r]:
                    ok = False
    field = field_of(2)
    size = field.q ** 9
    expected = {r: rank_counts(3, field, r, "oracle")[0] for r in (1, 2, 3)}
    rng = random.Random(173)
    for _ in range(1000):
        i = rng.randrange(size)
        j = rng.randrange(size - 1)
        if j >= i:
            j += 1
        a = index_to_matrix(i, 3, field)
        b = index_to_matrix(j, 3, field)
        r = (a - b).rank()
        if common_neighbors_bruteforce(a, b) != expected[r]:
            ok = False
    assert report(6, "common neighbors depend only on difference rank", ok,
                  "exhaustive n=2 q=2,3; 1000 seeded pairs n=3 q=2")


def test_criterion_7_singularity_criterion_equivalence():
    from unicayley import canonical_rank_matrix, singular_shift_criterion

    ok = True
    checked = 0
    for n, q in ((2, 2), (2, 3), (3, 2)):
        field = field_of(q)
        e11 = canonical_rank_matrix(n, 1, field)
        for a in all_matrices(n, field):
            lhs = a.is_invertible() and not (a + e11).is_invertible()
            if lhs != singular_shift_criterion(a):
                ok = False
            checked += 1
    assert report(7, "invertible-with-singular-shift criterion equivalence", ok,
                  f"{checked} matrices, zero mismatches required")


def test_criterion_8_degree_and_adjacent_pair_count():
    ok = True
    for n, q in ((2, 2), (2, 3), (3, 2)):
        field = field_of(q)
        ok = ok and rank_counts(n, field, 0, "oracle")[0] == gl_order(n, q)
        pair_count = common_neighbors_bruteforce(
            canonical_rank_matrix(n, 0, field), canonical_rank_matrix(n, n, field)
        )
        ok = ok and pair_count == derangements_formula(n, q)
    assert report(8, "degree and adjacent-pair common-neighbor counts", ok)


def test_criterion_9_pairwise_oracle_agrees_with_decision():
    ok = True
    cases = [(2, 2), (2, 3), (1, 2), (1, 3), (1, 4), (1, 5)]
    for n, q in cases:
        field = field_of(q)
        decision = srg_decide(n, field)
        pairwise = explicit_graph_build(n, field).pairwise_srg_test()
        ok = ok and pairwise.is_srg == decision.is_srg
        if decision.is_srg:
            ok = ok and (
                pairwise.order, pairwise.degree, pairwise.lam, pairwise.mu
            ) == decision.parameters
    assert report(9, "pairwise SRG oracle agrees with rank-class decision", ok,
                  f"{len(cases)} cases")


def test_criterion_10_cli_determinism(capsys):
    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    ok = True
    commands = [
        ["census", "--n", "2", "--field", "3", "--rank", "all",
         "--method", "both", "--output", "json"],
        ["srg", "--n", "3", "--field", "2", "--output", "json"],
        ["verify", "--check", "rank-reduction", "--n", "2", "--field", "3",
         "--seed", "7", "--output", "json"],
        ["graph-build", "--n", "2", "--field", "2", "--output", "json"],
    ]
    for argv in commands:
        first = run(*argv)
        second = run(*argv)
        ok = ok and first == second
    with capsys.disabled():
        assert report(10, "CLI output is byte-identical across runs", ok,
                      f"{len(commands)} commands")
