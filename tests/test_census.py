"""Closed-form counts against their brute-force enumeration oracles."""

import json
import random
import re
from itertools import product

import pytest

from unicayley import (
    BudgetExceededError,
    CensusRecord,
    Matrix,
    canonical_rank_matrix,
    derangements_formula,
    gl_order,
    index_to_matrix,
    make_field,
    rank1_intersection_formula,
    rank2_case_decomposition_oracle,
    rank2_case_formulas,
    rank2_intersection_formula,
    srg_parameters_n2,
)
from unicayley import matrices
from unicayley.census import SRG_METHODS, rank_counts, shifted_count_recursion
from unicayley.fields import FieldSpec
from unicayley.matrices import _transfer_counts, common_neighbors_bruteforce

from helpers import (
    all_matrices,
    block_scan_case_split,
    matrix_product,
    random_distinct_pair,
    random_invertible,
)

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
    assert rank_counts(2, F2, 0, "oracle")[0] == 6
    assert rank_counts(2, F3, 0, "oracle")[0] == 48
    assert rank_counts(2, F4, 0, "oracle")[0] == gl_order(2, 4)


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
    assert derangements_formula(n, field.q) == rank_counts(n, field, n, "oracle")[0]


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
    assert rank1_intersection_formula(n, field.q) == rank_counts(n, field, 1, "oracle")[0]


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
    assert rank2_intersection_formula(n, field.q) == rank_counts(n, field, 2, "oracle")[0]


def test_case_formulas_example():
    assert rank2_case_formulas(3, 2) == (32, 0, 24)
    with pytest.raises(ValueError):
        rank2_case_formulas(2, 2)


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_case_decomposition_matches_formulas_and_total(field):
    cases = rank2_case_decomposition_oracle(3, field)
    assert cases == rank2_case_formulas(3, field.q)
    assert sum(cases) == rank_counts(3, field, 2, "oracle")[0]


@pytest.mark.parametrize("n,field", [(3, F2), (3, F3), (3, F4), (4, F2)])
def test_case_split_equals_the_block_scan(n, field):
    # the two enumerated columns and the counted rest against every matrix's
    # unit flag, each labelled by the ranks of its leading block and of that
    # block plus I_2
    assert rank2_case_decomposition_oracle(n, field) == block_scan_case_split(n, field)


@pytest.mark.parametrize("n,field", [(4, F3), (5, F2), (4, F4), (5, F3), (6, F2)])
def test_case_split_beyond_the_block_scan(n, field):
    # from n = 4 on, the columns after the first two are a product of more
    # than one factor q^n - q^j; the budget is the charge, one q^(n^2) pass
    split = rank2_case_decomposition_oracle(n, field, budget=field.q ** (n * n))
    assert split == rank2_case_formulas(n, field.q)


@pytest.mark.parametrize("n", [4, 5])
def test_case_split_extends_only_the_zero_span_and_lines(n, monkeypatch):
    # columns 0 and 1 are enumerated and every later column is counted, so
    # no span of dimension 2 or more is ever extended
    sizes = []
    span_table = matrices._span_table

    def recording(*args):
        spaces, extend = span_table(*args)

        def recorded(u):
            sizes.append(len(spaces[u]))
            return extend(u)
        return spaces, recorded

    monkeypatch.setattr(matrices, "_span_table", recording)
    assert rank2_case_decomposition_oracle(n, F2) == rank2_case_formulas(n, 2)
    assert sizes and max(sizes) <= F2.q


def test_case_decomposition_rejects_small_n():
    with pytest.raises(ValueError):
        rank2_case_decomposition_oracle(2, F2)


def test_intersection_formula_dispatch():
    assert rank_counts(3, F2, 0, "formula")[0] == gl_order(3, 2)
    assert rank_counts(3, F2, 3, "formula")[0] == derangements_formula(3, 2)
    assert rank_counts(3, F2, 1, "formula")[0] == 72
    assert rank_counts(3, F2, 2, "formula")[0] == 56
    assert rank_counts(4, F2, 3, "formula")[0] == 6208  # the oracle's count
    with pytest.raises(ValueError):
        rank_counts(4, F2, 5, "formula")


@pytest.mark.parametrize("n,field", [(2, F2), (2, F3), (2, F4), (3, F2), (3, F3)])
def test_intersection_formula_matches_oracle_every_rank(n, field):
    for r in range(n + 1):
        assert (rank_counts(n, field, r, "formula")[0]
                == rank_counts(n, field, r, "oracle")[0])


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
    assert (rank_counts(1, field, r, "oracle")
            == rank_counts(1, field, r, "formula"))


@pytest.mark.parametrize("n,field", [(2, F3), (3, F2)])
def test_one_transfer_call_equals_one_call_per_shift(n, field):
    # ranks 0..n have distinct counts, so a shift that leaks into the next
    # one's count shows up
    rng = random.Random(31)
    shifts = [canonical_rank_matrix(n, r, field) for r in range(n + 1)]
    for _ in range(10):
        a, b = random_distinct_pair(rng, n, field)
        shifts.append(b - a)
    fused = _transfer_counts(shifts)
    assert fused == [_transfer_counts([d])[0] for d in shifts]
    assert fused[:n + 1] == [rank_counts(n, field, r, "formula")[0]
                             for r in range(n + 1)]
    assert len(set(fused[:n + 1])) == n + 1
    assert (rank_counts(n, field, None, "formula")
            == rank_counts(n, field, None, "oracle") == fused[:n + 1])


def per_matrix_counts(n, field, shifts):
    """The reference: each matrix of the space decided on its own determinants."""
    units = [m for m in all_matrices(n, field) if m.determinant() != 0]
    return [sum((m - d).determinant() != 0 for m in units) for d in shifts]


def random_of_rank(rng, n, field, r):
    # P diag(I_r, 0) Q has rank r, and so covers every rank class
    left = matrix_product(random_invertible(rng, n, field),
                          canonical_rank_matrix(n, r, field))
    return matrix_product(left, random_invertible(rng, n, field))


@pytest.mark.parametrize("n,field", [(1, make_field(3, 6)), (2, F3), (2, F4),
                                     (3, F2), (3, F3)])
def test_shifted_counts_equal_per_matrix_count(n, field):
    # the zero shift, a shift in row 0 alone, one off the diagonal in the
    # tail alone, random shifts, and two random shifts of every rank,
    # against each matrix decided on its own
    q = field.q
    row0 = Matrix(n, [1] * n + [0] * (n * n - n), field)
    shifts = [canonical_rank_matrix(n, 0, field), row0]
    if n > 1:
        shifts.append(Matrix(n, [0] * n + [1] + [0] * (n * n - n - 1), field))
    rng = random.Random(13)
    shifts += [index_to_matrix(rng.randrange(q ** (n * n)), n, field)
               for _ in range(6)]
    shifts += [random_of_rank(rng, n, field, r)
               for r in range(1, n + 1) for _ in range(2)]
    assert [d.rank() for d in shifts[-2 * n:]] == [r for r in range(1, n + 1)
                                                  for _ in range(2)]
    assert _transfer_counts(shifts) == per_matrix_counts(n, field, shifts)


@pytest.mark.parametrize("n,p,ranks", [(5, 2, range(6)), (4, 3, [1]),
                                       (2, 47, range(3))])
def test_transfer_equals_the_recursion_beyond_the_block_scan(n, p, ranks):
    # spaces whose block scan takes seconds or more: n = 5 is checked by an
    # oracle only here and in tests/frontier.py
    field = make_field(p)
    counts = _transfer_counts([canonical_rank_matrix(n, r, field) for r in ranks])
    assert counts == [shifted_count_recursion(n, r, p) for r in ranks]


def test_transfer_takes_no_inverse_for_the_last_column(monkeypatch):
    # above TABLE_LIMIT an inverse is a square-and-multiply; at n = 1 the
    # one column is the last, and asking whether it lies in the zero span
    # needs none
    def inv(self, a):
        raise AssertionError("inverse taken")

    monkeypatch.setattr(FieldSpec, "_inv_raw", inv)
    field = make_field(3, 6)
    assert rank_counts(1, field, 1, "oracle") == [field.q - 2]


def distinct_span_pairs(n, field, shift, length):
    """Distinct (span(m_<j), span(m_<j - d_<j)) over valid prefixes, by brute force.

    A span is the frozenset of its vectors, canonical by construction.
    """
    vectors = list(product(range(field.q), repeat=n))
    add, sub, mul = field.add_table, field.sub_table, field.mul_table

    def extend(span, v):
        return frozenset(tuple(add[a][mul[t][b]] for a, b in zip(u, v))
                         for u in span for t in range(field.q))

    columns = sorted((shift.entries[j::n] for j in range(n)), key=any)
    states = {(frozenset([(0,) * n]),) * 2}
    for d in columns[:length]:
        states = {(extend(u, m), extend(v, w))
                  for u, v in states for m in vectors
                  for w in [tuple(sub[a][b] for a, b in zip(m, d))]
                  if m not in u and w not in v}
    return len(states)


def test_transfer_keeps_one_state_per_span_pair():
    # a key that is not canonical splits one span pair into several states,
    # which a count shows only where U = V: pin the states per level
    shifts = [canonical_rank_matrix(3, r, F3) for r in range(4)]
    sizes = []
    assert _transfer_counts(shifts, sizes) == [
        rank_counts(3, F3, r, "formula")[0] for r in range(4)]
    assert sizes == [distinct_span_pairs(3, F3, d, j)
                     for d in shifts for j in (1, 2)]
    # zero columns first: one subspace per state until the first nonzero one
    assert sizes == [13, 13, 13, 13, 13, 76, 25, 133]


def test_oracle_counts_scan_nothing(monkeypatch):
    # the transfer decides each matrix by its columns' spans: no block scan,
    # no determinant, and no elimination, since a span is the set of its
    # vectors and "v lies in U" is a membership test
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle count took a block, a determinant "
                             "or an elimination")

    for name in ("scan_space", "_eliminate"):
        monkeypatch.setattr(matrices, name, refuse)
    a, b = canonical_rank_matrix(3, 0, F3), canonical_rank_matrix(3, 3, F3)
    assert rank_counts(3, F3, 1, "oracle")[0] == rank_counts(3, F3, 1, "formula")[0]
    assert common_neighbors_bruteforce(a, b) == rank_counts(3, F3, 3, "formula")[0]
    assert rank_counts(3, F4, None, "oracle") == rank_counts(3, F4, None, "formula")


def test_intersection_oracle_full_rank_is_derangement_count():
    assert rank_counts(2, F3, 2, "oracle")[0] == derangements_formula(2, 3)


def test_derangement_oracle_agrees_with_matrix_predicate():
    for field in (F2, F3):
        ident = canonical_rank_matrix(2, 2, field)
        count = sum(m.determinant() != 0 and (m - ident).determinant() != 0
                    for m in all_matrices(2, field))
        assert count == rank_counts(2, field, 2, "oracle")[0]
        assert count == derangements_formula(2, field.q)


@pytest.mark.parametrize("q,field_args", [(5, (5,)), (7, (7,)), (8, (2, 3)), (9, (3, 2))])
def test_wider_field_sweep_n2(q, field_args):
    field = make_field(*field_args)
    assert rank1_intersection_formula(2, q) == rank_counts(2, field, 1, "oracle")[0]
    assert derangements_formula(2, q) == rank_counts(2, field, 2, "oracle")[0]
    assert gl_order(2, q) == rank_counts(2, field, 0, "oracle")[0]


def test_intersection_oracle_rejects_bad_rank():
    with pytest.raises(ValueError):
        rank_counts(2, F2, 3, "oracle")
    # the rank is checked before the charge, which budget 1 would refuse
    with pytest.raises(ValueError, match=re.escape("rank must lie in [0, 2], got 3")):
        rank_counts(2, F2, 3, "oracle", budget=1)


def test_srg_parameters_examples():
    assert srg_parameters_n2(2) == (16, 6, 2, 2)
    # oracle arbitration of the q = 3 tuple: lambda is the derangement count,
    # mu the rank-1 intersection count
    assert srg_parameters_n2(3) == (81, 48, rank_counts(2, F3, 2, "oracle")[0],
                                    rank_counts(2, F3, 1, "oracle")[0])
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
        rank_counts(2, F3, 2, "oracle", budget=10)
    assert err.value.required == 81
    with pytest.raises(BudgetExceededError):
        rank_counts(3, F3, 1, "oracle", budget=100)


@pytest.mark.parametrize("rank,method", [
    (None, "formla"), (None, "both"), (1.0, "oracle"), (3, "oracle"), (-1, "formula"),
])
def test_rank_counts_checks_its_arguments_before_any_charge(rank, method):
    # a budget of 1 refuses every pass, so a charge before the check would
    # raise BudgetExceededError instead
    message = (f"rank must lie in [0, 2], got {rank!r}" if method in SRG_METHODS
               else f"method must be one of {SRG_METHODS}, got {method!r}")
    with pytest.raises(ValueError, match=re.escape(message)):
        rank_counts(2, F2, rank, method, budget=1)


def test_census_record_json():
    rec = CensusRecord(2, 3, 1, "formula", 30)
    doc = rec.to_json_dict()
    assert doc == {"n": 2, "q": 3, "rank": 1, "method": "formula", "count": "30"}
    assert json.loads(json.dumps(doc)) == doc
