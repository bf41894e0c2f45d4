"""Field construction, arithmetic axioms, and the deterministic modulus choice."""

import ast
import time
from itertools import product
from pathlib import Path

import pytest

import unicayley
from unicayley import BudgetExceededError, FieldSpec, is_irreducible, make_field
from unicayley.fields import TABLE_LIMIT, factor_prime_power, is_prime, poly_text

from helpers import run_python

SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


def brute_irreducible_deg2_or_3(coeffs, p):
    """Independent oracle: a degree 2 or 3 monic polynomial over GF(p) is
    irreducible iff it has no root."""
    deg = len(coeffs) - 1
    assert deg in (2, 3)
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    return True


def test_prime_fields_have_no_modulus():
    assert make_field(2).modulus is None
    assert make_field(3).modulus is None
    assert make_field(2).q == 2
    assert make_field(3, 1).q == 3


@pytest.mark.parametrize(
    "p,k,expected",
    [
        (2, 2, (1, 1, 1)),     # x^2 + x + 1
        (2, 3, (1, 1, 0, 1)),  # x^3 + x + 1
        (3, 2, (1, 0, 1)),     # x^2 + 1
        (5, 2, (2, 0, 1)),     # x^2 + 2
    ],
)
def test_modulus_is_smallest_irreducible(p, k, expected):
    # Oracle: scan candidates in the same high-to-low coefficient order and
    # take the first root-free one (valid for degree 2 and 3).
    found = None
    for high_to_low in product(range(p), repeat=k):
        cand = tuple(reversed(high_to_low)) + (1,)
        if brute_irreducible_deg2_or_3(cand, p):
            found = cand
            break
    assert found == expected
    assert make_field(p, k).modulus == expected


@pytest.mark.parametrize("p,k", [(2, 2), (2, 8), (3, 6), (5, 3)])
def test_fieldspec_picks_the_modulus_of_make_field(p, k):
    field = FieldSpec(p, k)
    assert field == make_field(p, k)
    assert field.modulus == make_field(p, k).modulus


@pytest.mark.parametrize("p,k", [(2.0, 1), (4, 1), (2, 1.0), (2, 2.0), (2, 0)])
def test_fieldspec_rejects_a_bad_characteristic_or_degree(p, k):
    with pytest.raises(ValueError):
        FieldSpec(p, k)


def test_table_build_refuses_a_ring_that_is_no_field():
    # in Z/4 the powers of 2 never return to 1; an unbounded walk grows its
    # list until memory runs out, so the build runs in a child interpreter
    # with its address space capped at 256 MB and a timeout
    code = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
from unicayley.fields import FieldSpec
spec = FieldSpec.__new__(FieldSpec)
spec.p, spec.k, spec.q, spec.modulus = 4, 1, 4, None
try:
    spec._build_tables()
except ValueError as exc:
    print(exc)
"""
    rc, out, err = run_python("-c", code)
    assert (rc, out, err) == (0, "powers of 2 never return to 1: 4^1 is not a field order\n", "")


def test_make_field_is_deterministic():
    a = make_field(2, 4)
    b = make_field(2, 4)
    assert a.modulus == b.modulus
    assert a == b


@pytest.mark.parametrize(
    "field_args,a,b,expected",
    [
        ((2,), 1, 1, 0),   # characteristic 2
        ((3,), 2, 2, 1),   # 4 mod 3
        ((2, 2), 2, 3, 1),  # x + (x + 1) = 1
    ],
)
def test_add_examples(field_args, a, b, expected):
    assert make_field(*field_args).add(a, b) == expected


def test_mul_examples():
    assert make_field(3).mul(2, 2) == 1
    # GF(4): x * x reduces to x + 1
    assert make_field(2, 2).mul(2, 2) == 3


def test_inv_examples():
    assert make_field(3).inv(2) == 2
    assert make_field(2).inv(1) == 1
    f4 = make_field(2, 2)
    assert f4.inv(2) == 3
    # independent route: exhaustive search for the inverse
    assert next(b for b in f4.elements() if f4.mul(2, b) == 1) == 3


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)


def test_elements_ascending():
    assert list(make_field(2).elements()) == [0, 1]
    assert list(make_field(3).elements()) == [0, 1, 2]
    assert list(make_field(2, 2).elements()) == [0, 1, 2, 3]


@pytest.mark.parametrize("p,k", SMALL_ORDERS)
def test_field_axioms_exhaustive(p, k):
    f = make_field(p, k)
    elems = list(f.elements())
    assert len(elems) == p ** k
    for a in elems:
        assert f.add(0, a) == a
        assert f.mul(1, a) == a
        assert f.mul(0, a) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
    for a in elems:
        for b in elems:
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,k", SMALL_ORDERS)
def test_unique_inverses(p, k):
    f = make_field(p, k)
    for a in f.elements():
        if a == 0:
            continue
        inverses = [b for b in f.elements() if f.mul(a, b) == 1]
        assert inverses == [f.inv(a)]


@pytest.mark.parametrize("p,k", SMALL_ORDERS)
def test_additive_order_of_one_is_p(p, k):
    f = make_field(p, k)
    acc = 0
    order = 0
    while True:
        acc = f.add(acc, 1)
        order += 1
        if acc == 0:
            break
    assert order == p


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError, match="prime"):
        make_field(4)
    with pytest.raises(ValueError, match="prime"):
        make_field(1)
    with pytest.raises(ValueError, match="degree"):
        make_field(2, 0)
    with pytest.raises(BudgetExceededError):
        make_field(5, 3, max_order=100)


def test_is_irreducible_examples():
    assert is_irreducible([1, 1, 1], 2)        # x^2 + x + 1
    assert not is_irreducible([1, 0, 1], 2)    # x^2 + 1 = (x + 1)^2
    assert is_irreducible([0, 1], 5)           # x
    with pytest.raises(ValueError, match="monic"):
        is_irreducible([1, 2], 3)
    with pytest.raises(ValueError, match="degree"):
        is_irreducible([1], 2)


def test_element_range_checked():
    f = make_field(2, 2)
    with pytest.raises(ValueError):
        f.add(1, 7)
    with pytest.raises(ValueError):
        f.mul(-1, 2)


def test_large_field_fallback_paths():
    # Above TABLE_LIMIT the lookups compute on the fly; sanity includes an
    # extension field so polynomial reduction is exercised.
    fp = make_field(257)
    for f, a, b in ((fp, 200, 200), (fp, 0, 256), (make_field(2, 9), 37, 511)):
        assert f.add_table[a][b] == f._add_raw(a, b)
        assert f.sub_table[a][b] == f._sub_raw(a, b)
        assert f.mul_table[a][b] == f._mul_raw(a, b)
        assert f.inv_table[b] == f._inv_raw(b)
        assert f.neg(a) == f.sub_table[0][a] == f._sub_raw(0, a)
        assert f.add(a, f.neg(a)) == 0
    assert fp.mul(200, 200) == (200 * 200) % 257
    assert fp.mul(123, fp.inv(123)) == 1

    f512 = make_field(2, 9)
    assert f512.q == 512 > TABLE_LIMIT
    for a in (1, 2, 37, 255, 511):
        assert f512.mul(a, f512.inv(a)) == 1
        assert f512.add(a, a) == 0  # characteristic 2
    assert f512.mul(3, 5) == f512.mul(5, 3)


def _is_table(node, names=frozenset()):
    return (isinstance(node, ast.Attribute) and node.attr.endswith("_table")) or (
        isinstance(node, ast.Name) and node.id in names
    )


def _table_none_tests(tree):
    """Lines comparing a lookup table, or a name bound to one, with None."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                names |= {t.id for t, v in pairs
                          if isinstance(t, ast.Name) and _is_table(v)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            constants = [o.value for o in operands if isinstance(o, ast.Constant)]
            if None in constants and any(_is_table(o, names) for o in operands):
                lines.append(node.lineno)
    return lines


def test_only_fields_tells_computed_lookups_from_stored_ones():
    # every other module indexes the tables the same way on every field, so
    # none of them may know TABLE_LIMIT or test a table for None
    package = Path(unicayley.__file__).parent
    offenders = {}
    for module in sorted(package.glob("*.py")):
        if module.name == "fields.py":
            continue
        text = module.read_text()
        found = _table_none_tests(ast.parse(text))
        if "TABLE_LIMIT" in text:
            found.append("TABLE_LIMIT")
        if found:
            offenders[module.name] = found
    assert len(list(package.glob("*.py"))) >= 7
    assert offenders == {}


@pytest.mark.parametrize("p,k", [(2, 8), (3, 5), (5, 3), (7, 2), (251, 1)])
def test_tables_match_raw_arithmetic(p, k):
    # the tables come from a primitive element and digit-wise copies; every
    # entry must equal the raw arithmetic that fields above TABLE_LIMIT use
    f = make_field(p, k)
    elems = range(f.q)
    for a in elems:
        assert f.add_table[a] == [f._add_raw(a, b) for b in elems]
        assert f.sub_table[a] == [f._sub_raw(a, b) for b in elems]
        assert f.mul_table[a] == [f._mul_raw(a, b) for b in elems]
    assert f.inv_table[1:] == [f._inv_raw(b) for b in elems if b]
    assert [f.add(b, f.sub_table[0][b]) for b in elems] == [0] * f.q


def test_largest_table_field_builds_fast():
    start = time.perf_counter()
    f = make_field(2, 8)
    assert time.perf_counter() - start < 0.5
    assert f.q == TABLE_LIMIT


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(12) is None
    assert factor_prime_power(1) is None


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_agrees_with_a_sieve():
    limit = 5000
    sieve = [False, False] + [True] * (limit - 2)
    for d in range(2, limit):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, limit, d))
    assert [n for n in range(-3, limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]]


def test_poly_text():
    assert poly_text((1, 1, 1)) == "x^2 + x + 1"
    assert poly_text((2, 0, 1)) == "x^2 + 2"
    assert poly_text((0, 1)) == "x"
