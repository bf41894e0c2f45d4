"""Exact arithmetic in GF(p^k) on integer-coded elements.

An element is an integer code in [0, q): the base-p digits of the code are
the coefficients of the representing polynomial, constant term in the least
significant digit.  Prime fields (k = 1) are integers mod p; extension
fields reduce polynomials modulo the smallest monic irreducible modulus,
which FieldSpec(p, k) picks itself, so repeated constructions of the same
field agree.  make_field is the validated front door: it checks p and k
and charges q against the budget before FieldSpec builds anything.

Every field offers one lookup interface for its arithmetic: add_table,
sub_table and mul_table are indexed t[a][b], inv_table t[a], and -b is
sub_table[0][b].  Up to TABLE_LIMIT these are lists, built for every field
from exp/log tables of a primitive element and one base-p digit at a time;
above it each lookup computes its entry with the raw operations, which the
tests also check the lists against.  Other modules cannot tell the two apart.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .errors import DEFAULT_BUDGET, check_budget

# Only this module tells stored tables from computed ones.
TABLE_LIMIT = 256


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None if q is no prime power."""
    if q < 2:
        return None
    p = 0
    d = 2
    while d * d <= q:
        if q % d == 0:
            p = d
            break
        d += 1
    if p == 0:
        return (q, 1)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    return (p, k) if m == 1 else None


def is_prime(n: int) -> bool:
    return factor_prime_power(n) == (n, 1)


# --- polynomials over GF(p), ascending coefficient lists ---------------------


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m, padded to deg(m) coefficients."""
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    rem = a[:dm]
    rem.extend([0] * (dm - len(rem)))
    return rem


def _irreducible(poly: list[int], p: int) -> bool:
    # unchecked: poly must be monic with coefficients in [0, p), p prime
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            divisor = list(tail) + [1]
            if not any(_poly_rem(poly, divisor, p)):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    # Candidates ordered by coefficients from x^{k-1} down to the constant
    # term, so the first hit is the lexicographically smallest modulus.
    for high_to_low in product(range(p), repeat=k):
        coeffs = list(reversed(high_to_low)) + [1]
        if _irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError(f"no irreducible polynomial of degree {k} over GF({p})")


def poly_text(coeffs: tuple[int, ...] | list[int]) -> str:
    """Human-readable form of an ascending coefficient list, e.g. 'x^2 + x + 1'."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            x = "x" if d == 1 else f"x^{d}"
            terms.append(x if c == 1 else f"{c}{x}")
    return " + ".join(terms) if terms else "0"


# --- the field itself ---------------------------------------------------------


class _ComputedTable:
    """Stands in for a stored lookup table: t[a] computes op(a).

    binary(op) nests two of them, so that t[a][b] computes op(a, b).
    """

    __slots__ = ("_op",)

    def __init__(self, op):
        self._op = op

    def __getitem__(self, a: int):
        return self._op(a)

    @classmethod
    def binary(cls, op) -> "_ComputedTable":
        return cls(lambda a: cls(partial(op, a)))


class FieldSpec:
    """A finite field GF(p^k) operating on integer element codes in [0, q).

    For k > 1 the modulus is the smallest monic irreducible polynomial of
    degree k over GF(p) (see make_field); construction charges no budget.
    Immutable after construction; all operations are pure, so instances may
    be shared freely.  Hot loops index the lookup tables add_table,
    sub_table, mul_table (t[a][b]) and inv_table (t[a]) directly, on codes
    they have validated, and negate through the row sub_table[0]; whether an
    entry is stored or computed is private to this class.  mul is the one
    checked front end to the tables; perfbench/micro.py times it.
    """

    __slots__ = ("p", "k", "q", "modulus",
                 "add_table", "sub_table", "mul_table", "inv_table")

    def __init__(self, p: int, k: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"extension degree must be an integer >= 1, got {k!r}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = _smallest_irreducible(p, k) if k > 1 else None
        if self.q <= TABLE_LIMIT:
            self._build_tables()
        else:
            self.add_table = _ComputedTable.binary(self._add_raw)
            self.sub_table = _ComputedTable.binary(self._sub_raw)
            self.mul_table = _ComputedTable.binary(self._mul_raw)
            self.inv_table = _ComputedTable(self._inv_raw)

    # raw operations on digits and polynomials

    def _digits(self, a: int) -> list[int]:
        out = []
        p = self.p
        for _ in range(self.k):
            a, d = divmod(a, p)
            out.append(d)
        return out

    def _encode(self, digits: list[int]) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    def _add_raw(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def _sub_raw(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x - y) % self.p for x, y in zip(da, db)])

    def _mul_raw(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        prod = _poly_mul(self._digits(a), self._digits(b), self.p)
        return self._encode(_poly_rem(prod, list(self.modulus), self.p))

    def _inv_raw(self, a: int) -> int:
        # a^(q - 2) by square and multiply
        result, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                result = self._mul_raw(result, base)
            base = self._mul_raw(base, base)
            e >>= 1
        return result

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        # exp[i] = g^i for the first g whose powers reach every nonzero code;
        # in a field every walk returns to 1 within q - 1 steps, and in any
        # other ring a zero divisor's walk never does
        for g in range(1, q):
            exp, x = [1], g
            while x != 1:
                if len(exp) == q - 1:
                    raise ValueError(f"powers of {g} never return to 1: "
                                     f"{p}^{self.k} is not a field order")
                exp.append(x)
                x = self._mul_raw(x, g)
            if len(exp) == q - 1:
                break
        log = {x: i for i, x in enumerate(exp)}
        logs = [log[a] for a in range(1, q)]
        exp2 = exp + exp
        self.mul_table = [[0] * q] + [[0] + [exp2[i + j] for j in logs] for i in logs]
        self.inv_table = [0] + [exp[-i] for i in logs]
        # over i + 1 digits, block (a, b) is the table over i digits + (a + b) % p * p^i
        add = [[0]]
        for step in (p ** i for i in range(self.k)):
            add = [[x + (a + b) % p * step for b in range(p) for x in row]
                   for a in range(p) for row in add]
        neg = [row.index(0) for row in add]
        self.add_table = add
        self.sub_table = [[row[nb] for nb in neg] for row in add]

    # public checked operations

    def _check(self, a: int) -> None:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element code of {self!r}")

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.mul_table[a][b]

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __repr__(self):
        return f"GF({self.q})"


def make_field(p: int, k: int = 1, *, max_order: int = DEFAULT_BUDGET) -> FieldSpec:
    """Validate p and k, charge q = p^k against max_order, then build GF(q).

    For k > 1 the modulus is the lexicographically smallest monic irreducible
    polynomial of degree k over GF(p), comparing coefficients from the
    highest degree down; FieldSpec(p, k) picks it.  The primality test,
    whose trial division runs to sqrt(p), runs only when p <= max_order, so
    a huge p is refused by the budget before any division.

    Raises:
        ValueError: p is not prime, or k < 1.
        BudgetExceededError: p^k exceeds max_order.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"extension degree must be a positive integer, got {k!r}")
    if not isinstance(p, int) or (p <= max_order and not is_prime(p)):
        raise ValueError(f"characteristic must be a prime integer, got {p!r}")
    # p > max_order fails here
    check_budget([(1, p, k)], max_order, f"construction of GF({p}^{k})")
    return FieldSpec(p, k)
