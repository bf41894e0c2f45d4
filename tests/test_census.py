"""Closed-form counts against their brute-force enumeration oracles."""

import json
import random

import pytest

from unicayley import (
    BudgetExceededError,
    CensusRecord,
    Matrix,
    canonical_rank_matrix,
    derangements_formula,
    enumerate_matrices,
    gl_order,
    identity_matrix,
    index_to_matrix,
    intersection_count_formula,
    intersection_count_oracle,
    make_field,
    rank1_intersection_formula,
    rank2_case_decomposition_oracle,
    rank2_case_formulas,
    rank2_intersection_formula,
    srg_parameters_n2,
    zero_matrix,
)
from unicayley import matrices
from unicayley.census import rank_counts, shifted_count_recursion
from unicayley.matrices import _shifted_unit_counts

from helpers import random_distinct_pair

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)


def test_gl_order_examples():
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168


def test_gl_order_matches_enumeration():
    # the rank-0 shift degenerates to a plain invertibility census
    assert intersection_count_oracle(0, 2, F2) == 6
    assert intersection_count_oracle(0, 2, F3) == 48
    assert intersection_count_oracle(0, 2, F4) == gl_order(2, 4)


def test_gl_order_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gl_order(0, 2)
    with pytest.raises(ValueError):
        gl_order(2, 6)
    with pytest.raises(ValueError):
        gl_order(2, 1)


def test_derangements_formula_base_cases():
    # e_0 = 1 is forced: it makes e_1 = q - 2, the number of field elements
    # distinct from both 0 and 1, which the oracle confirms below.
    for q in PRIME_POWERS:
        assert derangements_formula(0, q) == 1
        assert derangements_formula(1, q) == q - 2
    assert derangements_formula(1, 3) == 1
    assert derangements_formula(2, 2) == 2


@pytest.mark.parametrize(
    "n,field",
    [(1, F2), (1, F3), (2, F2), (2, F3), (2, F4), (3, F2)],
)
def test_derangements_formula_matches_oracle(n, field):
    assert derangements_formula(n, field.q) == intersection_count_oracle(n, n, field)


def test_derangements_formula_rejects_negative_n():
    with pytest.raises(ValueError):
        derangements_formula(-1, 2)


def test_rank1_formula_examples():
    for q in PRIME_POWERS:
        assert rank1_intersection_formula(1, q) == q - 2
    assert rank1_intersection_formula(2, 2) == 2
    assert rank1_intersection_formula(3, 2) == 72
    assert rank1_intersection_formula(3, 3) == 17 * 24 * 18


@pytest.mark.parametrize("n,field", [(1, F3), (2, F2), (2, F3), (3, F2)])
def test_rank1_formula_matches_oracle(n, field):
    assert rank1_intersection_formula(n, field.q) == intersection_count_oracle(
        1, n, field
    )


def test_rank2_formula_examples():
    assert rank2_intersection_formula(3, 2) == 56
    assert rank2_intersection_formula(3, 3) == 6534
    with pytest.raises(ValueError):
        rank2_intersection_formula(1, 2)


def test_rank2_collapses_to_derangements_at_n2():
    # at n = 2 the rank-2 shift is the identity matrix
    for q in PRIME_POWERS:
        assert rank2_intersection_formula(2, q) == derangements_formula(2, q)


@pytest.mark.parametrize("n,field", [(2, F2), (2, F3), (3, F2), (3, F3)])
def test_rank2_formula_matches_oracle(n, field):
    assert rank2_intersection_formula(n, field.q) == intersection_count_oracle(
        2, n, field
    )


def test_case_formulas_example():
    assert rank2_case_formulas(3, 2) == (32, 0, 24)
    with pytest.raises(ValueError):
        rank2_case_formulas(2, 2)


@pytest.mark.parametrize("field", [F2, F3])
def test_case_decomposition_matches_formulas_and_total(field):
    cases = rank2_case_decomposition_oracle(3, field)
    assert cases == rank2_case_formulas(3, field.q)
    assert sum(cases) == intersection_count_oracle(2, 3, field)


def test_case_decomposition_rejects_small_n():
    with pytest.raises(ValueError):
        rank2_case_decomposition_oracle(2, F2)


def test_intersection_formula_dispatch():
    assert intersection_count_formula(0, 3, 2) == gl_order(3, 2)
    assert intersection_count_formula(3, 3, 2) == derangements_formula(3, 2)
    assert intersection_count_formula(1, 3, 2) == 72
    assert intersection_count_formula(2, 3, 2) == 56
    assert intersection_count_formula(3, 4, 2) == 6208  # the oracle's count
    with pytest.raises(ValueError):
        intersection_count_formula(5, 4, 2)
    with pytest.raises(ValueError):
        intersection_count_formula(1, 3, 6)


@pytest.mark.parametrize("n,field", [(2, F2), (2, F3), (2, F4), (3, F2), (3, F3)])
def test_intersection_formula_matches_oracle_every_rank(n, field):
    for r in range(n + 1):
        assert intersection_count_formula(r, n, field.q) == intersection_count_oracle(
            r, n, field
        )


def test_recursion_polynomial_identities():
    # Both sides of each identity are polynomials in q of degree <= n^2, so
    # agreeing at the n^2 + 1 integers q = 2..n^2 + 2 proves them for every
    # q, prime power or not.  The unchecked forms accept any integer q.
    gl = gl_order.__wrapped__
    rank1 = rank1_intersection_formula.__wrapped__
    rank2 = rank2_intersection_formula.__wrapped__
    for n in range(3, 9):
        for q in range(2, n * n + 3):
            mu1 = shifted_count_recursion(n, 1, q)
            mu2 = shifted_count_recursion(n, 2, q)
            assert shifted_count_recursion(n, 0, q) == gl(n, q)
            assert mu1 == rank1(n, q)
            assert mu2 == rank2(n, q)
            assert shifted_count_recursion(n, n, q) == derangements_formula(n, q)
            # the paper's n >= 3 claim: mu_1 - mu_2 factors into terms that
            # are positive for every q >= 2, so mu_1 != mu_2
            lead = q ** (n - 1) - q ** (n - 2) - 1
            tail = 1
            for k in range(2, n):
                tail *= q ** n - q ** k
            assert mu1 - mu2 == q ** (n - 1) * lead * tail
            assert lead > 0 and tail > 0


@pytest.mark.parametrize("p,k", [(257, 1), (2, 9)])
@pytest.mark.parametrize("r", [0, 1])
def test_oracle_matches_formula_above_table_limit(p, k, r):
    # above TABLE_LIMIT the scan computes every lookup instead of reading it
    field = make_field(p, k)
    assert intersection_count_oracle(r, 1, field) == (
        intersection_count_formula(r, 1, field.q)
    )


@pytest.mark.parametrize("n,field", [(2, F3), (3, F2)])
def test_fused_scan_equals_one_scan_per_shift(n, field):
    # ranks 0..n have distinct counts, so a shift that leaks into the next
    # one's count shows up
    rng = random.Random(31)
    shifts = [canonical_rank_matrix(n, r, field) for r in range(n + 1)]
    for _ in range(10):
        a, b = random_distinct_pair(rng, n, field)
        shifts.append(b - a)
    fused = _shifted_unit_counts(shifts)
    assert fused == [_shifted_unit_counts([d])[0] for d in shifts]
    assert fused[:n + 1] == [intersection_count_formula(r, n, field.q)
                             for r in range(n + 1)]
    assert len(set(fused[:n + 1])) == n + 1
    assert (rank_counts(n, field, None, "formula")
            == rank_counts(n, field, None, "oracle") == fused[:n + 1])


@pytest.mark.parametrize("n,field", [(1, make_field(3, 6)), (2, F3), (2, F4),
                                     (3, F2)])
def test_shifted_counts_equal_per_matrix_count(n, field):
    # the zero shift, a shift in row 0 alone, one off the diagonal in the
    # tail alone, and random shifts, against each matrix decided on its own
    q = field.q
    row0 = Matrix(n, [1] * n + [0] * (n * n - n), field)
    shifts = [zero_matrix(n, field), row0]
    if n > 1:
        shifts.append(Matrix(n, [0] * n + [1] + [0] * (n * n - n - 1), field))
    rng = random.Random(13)
    shifts += [index_to_matrix(rng.randrange(q ** (n * n)), n, field)
               for _ in range(6)]
    expected = [
        sum(m.is_invertible() and (m - d).is_invertible()
            for m in enumerate_matrices(n, field))
        for d in shifts
    ]
    assert _shifted_unit_counts(shifts) == expected


def test_zero_shift_takes_no_second_determinant(monkeypatch):
    # N - 0 = N, so only the scan's cofactors are taken: one vector of n
    # minors per block of q^n matrices, none per unit
    calls = []
    det = matrices._det_flat

    def counted(*args):
        calls.append(1)
        return det(*args)

    monkeypatch.setattr(matrices, "_det_flat", counted)
    assert _shifted_unit_counts([zero_matrix(2, F3)]) == [48]
    assert len(calls) == 9 * 2
    calls.clear()
    # a shift with a nonzero tail takes a second cofactor vector per block
    assert _shifted_unit_counts([identity_matrix(2, F3)]) == [27]
    assert len(calls) == 9 * 2 * 2


def test_intersection_oracle_full_rank_is_derangement_count():
    assert intersection_count_oracle(2, 2, F3) == derangements_formula(2, 3)


def test_derangement_oracle_agrees_with_matrix_predicate():
    from unicayley import enumerate_matrices

    for field in (F2, F3):
        ident = identity_matrix(2, field)
        count = sum(m.is_invertible() and (m - ident).is_invertible()
                    for m in enumerate_matrices(2, field))
        assert count == intersection_count_oracle(2, 2, field)
        assert count == derangements_formula(2, field.q)


@pytest.mark.parametrize("q,field_args", [(5, (5,)), (7, (7,)), (8, (2, 3)), (9, (3, 2))])
def test_wider_field_sweep_n2(q, field_args):
    field = make_field(*field_args)
    assert rank1_intersection_formula(2, q) == intersection_count_oracle(1, 2, field)
    assert derangements_formula(2, q) == intersection_count_oracle(2, 2, field)
    assert gl_order(2, q) == intersection_count_oracle(0, 2, field)


def test_intersection_oracle_rejects_bad_rank():
    with pytest.raises(ValueError):
        intersection_count_oracle(3, 2, F2)


def test_srg_parameters_examples():
    assert srg_parameters_n2(2) == (16, 6, 2, 2)
    # oracle arbitration of the q = 3 tuple: lambda is the derangement count,
    # mu the rank-1 intersection count
    assert srg_parameters_n2(3) == (81, 48, intersection_count_oracle(2, 2, F3),
                                    intersection_count_oracle(1, 2, F3))
    assert srg_parameters_n2(3) == (81, 48, 27, 30)


def test_srg_parameter_k_is_gl_order():
    for q in PRIME_POWERS:
        assert srg_parameters_n2(q)[1] == gl_order(2, q)


def test_rank1_rank2_counts_never_coincide_above_n2():
    # exact integer comparison across the whole grid
    for n in range(3, 7):
        for q in PRIME_POWERS:
            assert rank1_intersection_formula(n, q) != rank2_intersection_formula(n, q)


def test_recurrence_regression():
    for q in PRIME_POWERS:
        for n in range(1, 7):
            expected = (
                derangements_formula(n - 1, q) * (q ** n - 1) * q ** (n - 1)
                + (-1) ** n * q ** (n * (n - 1) // 2)
            )
            assert derangements_formula(n, q) == expected


def test_counts_are_exact_big_integers():
    # far beyond 64-bit range; exactness is the point
    big = gl_order(6, 9)
    assert big % (9 ** 6 - 1) == 0
    assert big > 2 ** 64


def test_oracle_budget_refusal():
    with pytest.raises(BudgetExceededError) as err:
        intersection_count_oracle(2, 2, F3, budget=10)
    assert err.value.required == 81
    with pytest.raises(BudgetExceededError):
        intersection_count_oracle(1, 3, F3, budget=100)


def test_census_record_json():
    rec = CensusRecord(2, 3, 1, "formula", 30)
    doc = rec.to_json_dict()
    assert doc == {"n": 2, "q": 3, "rank": 1, "method": "formula", "count": "30"}
    assert json.loads(json.dumps(doc)) == doc
