"""Matrix differences, elimination kernels, enumeration.

Sums, products and indices come from the reference helpers in helpers.py,
and matrices are equal when their entries are."""

import ast
import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import unicayley
from unicayley import (
    Matrix,
    canonical_rank_matrix,
    index_to_matrix,
    make_field,
    parse_matrix,
)
from unicayley.matrices import _eliminate, _span_table, first_rows, scan_space
from helpers import (
    all_matrices,
    matrix_index,
    matrix_product,
    matrix_sum,
    random_invertible,
    random_matrix,
    run_python,
    singular_shift_criterion,
    span_shift_criterion,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)

# GF(2^4) indexes its tables; GF(3^6) lies above TABLE_LIMIT and computes
# every operation on the fly.
PROPERTY_FIELDS = [make_field(2, 4), make_field(3, 6)]
PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=40
)


def draw_matrix(data, n, field):
    # small codes half the time, so zero pivots and row swaps occur
    entry = st.integers(0, 1) | st.integers(0, field.q - 1)
    entries = data.draw(st.lists(entry, min_size=n * n, max_size=n * n))
    return Matrix(n, entries, field)


def test_parse_and_literal_round_trip():
    m = parse_matrix("1,0;0,1", F2)
    assert m.entries == canonical_rank_matrix(2, 2, F2).entries
    assert m.to_literal() == "1,0;0,1"
    assert parse_matrix("1,2;2,1", F3).entries[1] == 2  # entry (0, 1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_matrix("1,x;0,1", F2)
    with pytest.raises(ValueError):
        parse_matrix("1,0;1", F2)
    with pytest.raises(ValueError):
        parse_matrix("3,0;0,1", F2)  # code out of range


def test_self_difference_is_zero():
    m = parse_matrix("1,2;0,1", F3)
    assert (m - m).entries == canonical_rank_matrix(2, 0, F3).entries


def test_mismatch_errors():
    with pytest.raises(ValueError, match="field"):
        canonical_rank_matrix(2, 2, F2) - canonical_rank_matrix(2, 2, F3)
    with pytest.raises(ValueError, match="dimension"):
        canonical_rank_matrix(2, 2, F2) - canonical_rank_matrix(3, 3, F2)


def test_determinant_examples():
    assert canonical_rank_matrix(3, 3, F3).determinant() == 1
    assert parse_matrix("1,2;1,2", F3).determinant() == 0
    # 1*1 - 2*2 = -3 = 0 in GF(3)
    assert parse_matrix("1,2;2,1", F3).determinant() == 0
    # one row exchange: -1 = 2 in GF(3), and -2 = 3 in GF(5)
    assert parse_matrix("0,1;1,0", F3).determinant() == 2
    assert parse_matrix("0,1,0;0,0,1;2,0,0", F5).determinant() == 2
    assert parse_matrix("0,1,0;1,0,0;0,0,2", F5).determinant() == 3


def test_rank_examples():
    assert canonical_rank_matrix(3, 0, F2).rank() == 0
    assert canonical_rank_matrix(4, 4, F3).rank() == 4
    assert canonical_rank_matrix(3, 2, F2).rank() == 2


def test_invertible_count_gf2_2x2():
    count = sum(m.determinant() != 0 for m in all_matrices(2, F2))
    assert count == 6


class _NoInverse:
    def __getitem__(self, a):
        raise AssertionError(f"inverse of {a} taken")


def test_eliminate_takes_no_inverse_for_the_last_pivot():
    # above TABLE_LIMIT an inverse is a square-and-multiply; with no row
    # left below the pivot it would eliminate nothing
    field = SimpleNamespace(sub_table=F3.sub_table, mul_table=F3.mul_table,
                            inv_table=_NoInverse())
    pivots, _ = _eliminate([[0, 2, 1]], field)
    assert len(pivots) == 1


@pytest.mark.parametrize("n,field", [(2, F2), (2, F3), (3, F2), (2, F4), (2, F5)])
def test_rank_det_invertible_agree_exhaustive(n, field):
    for m in all_matrices(n, field):
        assert (m.rank() == n) == (m.determinant() != 0)


@pytest.mark.parametrize("n,field", [(2, F3), (3, F2), (3, F3)])
def test_rank_invariant_under_invertible_factors(n, field):
    rng = random.Random(97 + n * field.q)
    for _ in range(40):
        m = random_matrix(rng, n, field)
        p = random_invertible(rng, n, field)
        q = random_invertible(rng, n, field)
        assert matrix_product(matrix_product(p, m), q).rank() == m.rank()


def test_singular_shift_criterion_examples():
    # the elimination reference the span kernel is checked against;
    # first column -v1, rest the matching unit columns: the zero-combination case
    m = parse_matrix("2,0,0;0,1,0;0,0,1", F3)
    assert singular_shift_criterion(m)
    # identity: true exactly in characteristic 2
    assert singular_shift_criterion(canonical_rank_matrix(2, 2, F2))
    assert not singular_shift_criterion(canonical_rank_matrix(2, 2, F3))
    assert not singular_shift_criterion(canonical_rank_matrix(2, 0, F3))


@pytest.mark.parametrize("n,field", [(1, F2), (1, F3), (2, F2), (2, F3), (3, F2), (3, F3)])
def test_singular_shift_criterion_matches_predicate(n, field):
    e11 = canonical_rank_matrix(n, 1, field)
    for m in all_matrices(n, field):
        direct = m.determinant() != 0 and matrix_sum(m, e11).determinant() == 0
        assert direct == singular_shift_criterion(m)


@pytest.mark.parametrize("n,p,k", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 2, 2),
                                   (3, 3, 1), (1, 3, 6), (1, 2, 8)])
def test_span_criterion_matches_elimination(n, p, k):
    # the column-span kernel against the elimination reference, on every
    # matrix; GF(3^6) lies above TABLE_LIMIT and GF(2^8) at it
    field = make_field(p, k)
    spaces, extend = _span_table(n, field)
    passing = 0
    for m in all_matrices(n, field):
        expected = singular_shift_criterion(m)
        assert span_shift_criterion(m, spaces, extend) == expected, m.to_literal()
        passing += expected
    assert passing > 0


def test_enumeration_examples():
    # the per-matrix reference lists the space in index order
    ms = list(all_matrices(1, F2))
    assert [m.entries for m in ms] == [(0,), (1,)]
    ms = list(all_matrices(2, F2))
    assert len(ms) == 16
    assert ms[0].entries == Matrix(2, [0, 0, 0, 0], F2).entries
    assert [matrix_index(m) for m in ms] == list(range(16))
    # index 9 = binary 1001, least significant digit is entry (0,0)
    assert index_to_matrix(9, 2, F2).entries == parse_matrix("1,0;0,1", F2).entries


def test_index_round_trip():
    for i in range(81):
        assert matrix_index(index_to_matrix(i, 2, F3)) == i


def test_enumeration_errors():
    with pytest.raises(ValueError):
        index_to_matrix(16, 2, F2)
    with pytest.raises(ValueError):
        index_to_matrix(-1, 2, F2)


def test_canonical_rank_matrix():
    assert canonical_rank_matrix(3, 0, F2).entries == Matrix(3, [0] * 9, F2).entries
    assert (canonical_rank_matrix(3, 3, F2).entries
            == parse_matrix("1,0,0;0,1,0;0,0,1", F2).entries)
    assert canonical_rank_matrix(3, 2, F2).to_literal() == "1,0,0;0,1,0;0,0,0"
    with pytest.raises(ValueError):
        canonical_rank_matrix(2, 3, F2)


def test_matrix_validation():
    # ragged rows, the second with n * n entries in all
    for text in ("0,1;1", "0,1,1;1"):
        with pytest.raises(ValueError, match="rows must form a square matrix"):
            parse_matrix(text, F2)
    with pytest.raises(ValueError):
        parse_matrix("0,2;1,0", F2)


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=repr)
@PROPERTY_SETTINGS
@given(n=st.integers(1, 4), data=st.data())
def test_determinant_is_multiplicative(field, n, data):
    a = draw_matrix(data, n, field)
    b = draw_matrix(data, n, field)
    assert (matrix_product(a, b).determinant()
            == field.mul(a.determinant(), b.determinant()))


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=repr)
@PROPERTY_SETTINGS
@given(n=st.integers(1, 4), data=st.data())
def test_rank_properties(field, n, data):
    # a product through k columns has rank at most k, so every rank occurs
    k = data.draw(st.integers(0, n))
    a = draw_matrix(data, n, field)
    b = draw_matrix(data, n, field)
    thin = Matrix(n, [e if i % n < k else 0 for i, e in enumerate(a.entries)], field)
    m = matrix_product(thin, b)
    rank = m.rank()
    transpose = Matrix(n, [m.entries[j * n + i] for i in range(n) for j in range(n)], field)
    assert rank <= k
    assert transpose.rank() == rank
    assert (rank == n) == (m.determinant() != 0)


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_matrices_enumerates_the_space():
    # scan_space is the one full-space loop, so no other module may name
    # the generator behind it
    package = Path(unicayley.__file__).parent
    offenders = [
        module.name
        for module in sorted(package.glob("*.py"))
        if module.name != "matrices.py"
        and "_iter_flat" in _names(ast.parse(module.read_text()))
    ]
    assert len(list(package.glob("*.py"))) >= 7
    assert offenders == []


def test_only_eliminate_names_the_inverse_table():
    # one row reduction: outside fields.py, only matrices._eliminate divides,
    # so no second elimination loop can grow up beside it
    package = Path(unicayley.__file__).parent
    offenders = []
    kernel = None
    for module in sorted(package.glob("*.py")):
        if module.name == "fields.py":
            continue
        body = []
        for node in ast.parse(module.read_text()).body:
            if module.name == "matrices.py" and getattr(node, "name", None) == "_eliminate":
                kernel = node
            else:
                body.append(node)
        if "inv_table" in _names(ast.Module(body=body, type_ignores=[])):
            offenders.append(module.name)
    assert len(list(package.glob("*.py"))) >= 7
    assert "inv_table" in _names(kernel)
    assert offenders == []


@pytest.mark.parametrize("n,p,k", [(1, 2, 1), (1, 3, 6), (2, 3, 1), (2, 2, 2),
                                   (3, 2, 1), (4, 2, 1)])
def test_block_dets_equal_per_matrix_determinants(n, p, k):
    # every matrix's unit flag from its tail's span says whether its
    # determinant is nonzero, in index order, beside its row
    # of first_rows; GF(3^6) lies above TABLE_LIMIT
    field = make_field(p, k)
    matrices = all_matrices(n, field)
    rows = first_rows(n, field)
    blocks = []

    def visit(tail, units):
        blocks.append(len(units))
        for row, unit in zip(rows, units, strict=True):
            m = next(matrices)
            assert m.entries == row + tail
            assert unit == (m.determinant() != 0)

    scan_space(n, field, visit)
    assert next(matrices, None) is None
    assert blocks == [field.q ** n] * field.q ** (n * n - n)


def test_package_imports_only_the_standard_library():
    # the package runs on a bare interpreter; a third-party import that
    # happens to be installed would pass every other test
    package = Path(unicayley.__file__).parent
    roots = set()
    for module in package.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    assert roots
    assert sorted(roots - set(sys.stdlib_module_names) - {"unicayley"}) == []


def test_every_public_name_is_its_home_modules_definition():
    # the package resolves its names lazily; each must be the one object a
    # single module of the package defines at top level, not a stand-in
    package = Path(unicayley.__file__).parent
    public = set(unicayley.__all__)
    homes = {name: [] for name in public}
    for module in package.glob("*.py"):
        for node in ast.parse(module.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = {node.name}
            elif isinstance(node, ast.Assign):
                defined = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                continue
            for name in defined & public:
                homes[name].append(module.stem)
    for name, found in homes.items():
        assert len(found) == 1 and found != ["__init__"], (name, found)
        home = importlib.import_module(f"unicayley.{found[0]}")
        assert getattr(unicayley, name) is getattr(home, name), name


def test_public_names_are_pinned():
    # one spelling per operation: a second name for an existing one, or any
    # new export, must be added here on purpose
    assert unicayley.__all__ == [
        "BudgetExceededError", "CayleyGraph", "CensusRecord", "DEFAULT_BUDGET",
        "FieldSpec", "Matrix", "PairwiseSrgResult", "SrgReport", "SrgWitness",
        "canonical_rank_matrix", "common_neighbors_bruteforce",
        "derangements_formula", "explicit_graph_build", "gl_order",
        "index_to_matrix", "make_field", "parse_matrix",
        "rank1_intersection_formula", "rank2_case_decomposition_oracle",
        "rank2_case_formulas", "rank2_intersection_formula", "rank_counts",
        "srg_decide", "srg_parameters_n2",
    ]


def test_package_names_load_on_first_access():
    code = ("import sys, unicayley\n"
            "print(sorted(m for m in sys.modules if m.startswith('unicayley')))\n"
            "print(set(unicayley.__all__) <= set(dir(unicayley)))\n"
            "from unicayley import matrices\n"
            "print(unicayley.Matrix is matrices.Matrix)\n")
    assert run_python("-c", code) == (0, "['unicayley']\nTrue\nTrue\n", "")
    with pytest.raises(AttributeError, match="'unicayley' has no attribute 'matrixx'"):
        unicayley.matrixx
