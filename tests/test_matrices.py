"""Matrix arithmetic, elimination kernels, enumeration."""

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
    BudgetExceededError,
    Matrix,
    canonical_rank_matrix,
    enumerate_matrices,
    identity_matrix,
    index_to_matrix,
    matrix_from_rows,
    matrix_space_size,
    make_field,
    parse_matrix,
    singular_shift_criterion,
    zero_matrix,
)
from unicayley.matrices import _det_flat, _eliminate, scan_space
from helpers import random_invertible, random_matrix, run_python

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
    assert m == identity_matrix(2, F2)
    assert m.to_literal() == "1,0;0,1"
    assert parse_matrix("1,2;2,1", F3).entry(0, 1) == 2


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_matrix("1,x;0,1", F2)
    with pytest.raises(ValueError):
        parse_matrix("1,0;1", F2)
    with pytest.raises(ValueError):
        parse_matrix("3,0;0,1", F2)  # code out of range


def test_self_difference_is_zero():
    m = parse_matrix("1,2;0,1", F3)
    assert m - m == zero_matrix(2, F3)


def test_identity_is_neutral():
    m = parse_matrix("1,2;2,0", F3)
    assert identity_matrix(2, F3) @ m == m
    assert m @ identity_matrix(2, F3) == m


def test_product_example_char2():
    m = parse_matrix("1,1;0,1", F2)
    assert m @ m == identity_matrix(2, F2)


def test_mismatch_errors():
    with pytest.raises(ValueError, match="field"):
        identity_matrix(2, F2) + identity_matrix(2, F3)
    with pytest.raises(ValueError, match="dimension"):
        identity_matrix(2, F2) + identity_matrix(3, F2)


def test_determinant_examples():
    assert identity_matrix(3, F3).determinant() == 1
    assert parse_matrix("1,2;1,2", F3).determinant() == 0
    # 1*1 - 2*2 = -3 = 0 in GF(3)
    assert parse_matrix("1,2;2,1", F3).determinant() == 0


def test_rank_examples():
    assert zero_matrix(3, F2).rank() == 0
    assert identity_matrix(4, F3).rank() == 4
    assert canonical_rank_matrix(3, 2, F2).rank() == 2


def test_invertible_count_gf2_2x2():
    count = sum(m.is_invertible() for m in enumerate_matrices(2, F2))
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
    for m in enumerate_matrices(n, field):
        full_rank = m.rank() == n
        assert full_rank == (m.determinant() != 0)
        assert full_rank == m.is_invertible()


@pytest.mark.parametrize("n,field", [(2, F3), (3, F2), (3, F3)])
def test_rank_invariant_under_invertible_factors(n, field):
    rng = random.Random(97 + n * field.q)
    for _ in range(40):
        m = random_matrix(rng, n, field)
        p = random_invertible(rng, n, field)
        q = random_invertible(rng, n, field)
        assert (p @ m @ q).rank() == m.rank()


def test_singular_shift_criterion_examples():
    # first column -v1, rest the matching unit columns: the zero-combination case
    m = matrix_from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]], F3)
    assert singular_shift_criterion(m)
    # identity: true exactly in characteristic 2
    assert singular_shift_criterion(identity_matrix(2, F2))
    assert not singular_shift_criterion(identity_matrix(2, F3))
    assert not singular_shift_criterion(zero_matrix(2, F3))


@pytest.mark.parametrize("n,field", [(1, F2), (1, F3), (2, F2), (2, F3), (3, F2), (3, F3)])
def test_singular_shift_criterion_matches_predicate(n, field):
    e11 = canonical_rank_matrix(n, 1, field)
    for m in enumerate_matrices(n, field):
        direct = m.is_invertible() and not (m + e11).is_invertible()
        assert direct == singular_shift_criterion(m)


def test_enumeration_examples():
    ms = list(enumerate_matrices(1, F2))
    assert [m.entries for m in ms] == [(0,), (1,)]
    ms = list(enumerate_matrices(2, F2))
    assert len(ms) == 16
    assert ms[0] == zero_matrix(2, F2)
    assert matrix_space_size(2, F3) == 81
    # index 9 = binary 1001, least significant digit is entry (0,0)
    assert index_to_matrix(9, 2, F2) == identity_matrix(2, F2)


def test_index_round_trip():
    for i in range(matrix_space_size(2, F3)):
        assert index_to_matrix(i, 2, F3).index() == i


def test_enumeration_errors():
    with pytest.raises(ValueError):
        index_to_matrix(16, 2, F2)
    with pytest.raises(ValueError):
        index_to_matrix(-1, 2, F2)
    with pytest.raises(BudgetExceededError):
        enumerate_matrices(3, F3, budget=100)


def test_canonical_rank_matrix():
    assert canonical_rank_matrix(3, 0, F2) == zero_matrix(3, F2)
    assert canonical_rank_matrix(3, 3, F2) == identity_matrix(3, F2)
    assert canonical_rank_matrix(3, 2, F2).to_literal() == "1,0,0;0,1,0;0,0,0"
    with pytest.raises(ValueError):
        canonical_rank_matrix(2, 3, F2)


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix_from_rows([[0, 1], [1]], F2)
    with pytest.raises(ValueError):
        matrix_from_rows([[0, 2], [1, 0]], F2)


def test_det_flat_matches_generic_elimination():
    # the n <= 3 closed forms must agree with the generic elimination path
    rng = random.Random(5)
    for n, field in [(2, F3), (3, F4), (3, F5)]:
        for _ in range(50):
            m = random_matrix(rng, n, field)
            padded = identity_matrix(n + 1, field)
            rows = [
                [m.entry(i, j) if i < n and j < n else padded.entry(i, j)
                 for j in range(n + 1)]
                for i in range(n + 1)
            ]
            big = matrix_from_rows(rows, field)
            assert big.determinant() == m.determinant()


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=repr)
@PROPERTY_SETTINGS
@given(n=st.integers(1, 4), data=st.data())
def test_determinant_is_multiplicative(field, n, data):
    a = draw_matrix(data, n, field)
    b = draw_matrix(data, n, field)
    assert (a @ b).determinant() == field.mul(a.determinant(), b.determinant())


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=repr)
@PROPERTY_SETTINGS
@given(n=st.integers(1, 4), data=st.data())
def test_rank_properties(field, n, data):
    # a product through k columns has rank at most k, so every rank occurs
    k = data.draw(st.integers(0, n))
    a = draw_matrix(data, n, field)
    b = draw_matrix(data, n, field)
    thin = Matrix(n, [e if i % n < k else 0 for i, e in enumerate(a.entries)], field)
    m = thin @ b
    rank = m.rank()
    transpose = Matrix(n, [m.entry(j, i) for i in range(n) for j in range(n)], field)
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
    # every full-space loop goes through scan_space or enumerate_matrices,
    # so no other module may name the generator behind them
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
    # every matrix's determinant from its block's row-0 expansion equals the
    # elimination kernel's, in index order; GF(3^6) lies above TABLE_LIMIT
    field = make_field(p, k)
    matrices = enumerate_matrices(n, field)
    blocks = []

    def visit(tail, dets):
        blocks.append(len(dets))
        for det in dets:
            m = next(matrices)
            assert m.entries[n:] == tail
            assert det == _det_flat(m.entries, n, field)

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


def test_package_names_load_on_first_access():
    code = ("import sys, unicayley\n"
            "print(sorted(m for m in sys.modules if m.startswith('unicayley')))\n"
            "print(set(unicayley.__all__) <= set(dir(unicayley)))\n"
            "from unicayley import matrices\n"
            "print(unicayley.Matrix is matrices.Matrix)\n")
    assert run_python("-c", code) == (0, "['unicayley']\nTrue\nTrue\n", "")
    with pytest.raises(AttributeError, match="'unicayley' has no attribute 'matrixx'"):
        unicayley.matrixx
