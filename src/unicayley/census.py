"""Closed-form matrix counts over GF(q) and brute-force oracles for each.

Every count is exact (arbitrary-precision integers throughout).  The central
family is the "shifted intersection" count: the number of invertible n x n
matrices M such that M - diag(I_r, 0) is also invertible.  A Gaussian-binomial
recursion gives it in closed form for every rank 0 <= r <= n, from the base
cases r = 0 (the general linear group order) and r = n (linear
derangements).  The paper's own forms for r = 1 and r = 2 are kept as
independent checks of the recursion, and the oracle covers every rank by full
enumeration.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress

from .errors import check_budget
from .fields import FieldSpec, factor_prime_power
from .matrices import _block_dets, _det_flat, canonical_rank_matrix, scan_space


def _check_nq(n: int, q: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"matrix side must be a positive integer, got {n!r}")
    if not isinstance(q, int) or factor_prime_power(q) is None:
        raise ValueError(f"field order must be a prime power >= 2, got {q!r}")


def _validated(formula):
    """Check (n, q) before evaluating a closed form.

    The unchecked polynomial stays reachable as formula.__wrapped__, so
    identities between closed forms can be tested at every integer q >= 2,
    not only at prime powers.
    """

    @functools.wraps(formula)
    def checked(n: int, q: int) -> int:
        _check_nq(n, q)
        return formula(n, q)

    return checked


@_validated
def gl_order(n: int, q: int) -> int:
    """Number of invertible n x n matrices over GF(q)."""
    out = 1
    qn = q ** n
    for k in range(1, n + 1):
        out *= qn - q ** (k - 1)
    return out


def derangements_formula(n: int, q: int) -> int:
    """Count of invertible matrices with neither 0 nor 1 as an eigenvalue.

    Evaluates the recurrence
        e_n = e_{n-1} * (q^n - 1) * q^{n-1} + (-1)^n * q^{n(n-1)/2}
    with base case e_0 = 1, which the enumeration oracle confirms (e_1 must
    equal q - 2, the number of scalars distinct from 0 and 1).
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"matrix side must be a nonnegative integer, got {n!r}")
    e = 1
    for i in range(1, n + 1):
        e = e * (q ** i - 1) * q ** (i - 1) + (-1) ** i * q ** (i * (i - 1) // 2)
    return e


@_validated
def rank1_intersection_formula(n: int, q: int) -> int:
    """Closed form for invertible M with M - E_11 invertible.

    (q^n - q^{n-1} - 1) * prod_{k=1}^{n-1} (q^n - q^k); the product is empty
    at n = 1, where the count degenerates to q - 2.
    """
    qn = q ** n
    out = qn - q ** (n - 1) - 1
    for k in range(1, n):
        out *= qn - q ** k
    return out


@_validated
def rank2_intersection_formula(n: int, q: int) -> int:
    """Closed form for invertible M with M - diag(1,1,0,...,0) invertible.

    Defined for n >= 2; at n = 2 the shift is the identity and the count
    collapses to the derangement count e_2.
    """
    if n < 2:
        raise ValueError(f"rank-2 shift needs n >= 2, got {n}")
    head = (
        q ** (2 * n) - q ** (2 * n - 1) - q ** (2 * n - 2) + q ** (2 * n - 3)
        + q ** (n - 1) - q ** (n + 1) + q
    )
    for k in range(2, n):
        head *= q ** n - q ** k
    return head


def rank2_case_formulas(n: int, q: int) -> tuple[int, int, int]:
    """Per-case closed forms behind the rank-2 count, for n >= 3.

    The rank-2 total splits by the rank of a distinguished leading 2 x 2
    block: case 1 collects rank 2, case 2 rank 0, case 3 rank 1.
    """
    _check_nq(n, q)
    if n < 3:
        raise ValueError(f"case split needs n >= 3, got {n}")
    tail = 1
    for k in range(2, n):
        tail *= q ** n - q ** k
    e2 = derangements_formula(2, q)
    case1 = e2 * q ** (2 * n - 4) * tail
    case2 = (q ** (n - 2) - 1) * (q ** (n - 2) - q) * tail
    case3 = (
        ((q * q - 1) * (q * q - q) - e2 - 1)
        * q ** (n - 2) * (q ** (n - 2) - 1) * tail
    )
    return case1, case2, case3


@functools.lru_cache(maxsize=None)
def gaussian_binomial(a: int, b: int, q: int) -> int:
    """[a, b]_q: the number of b-dimensional subspaces of GF(q)^a."""
    if not 0 <= b <= a:
        return 0
    num = den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@functools.lru_cache(maxsize=None)
def shifted_count_recursion(n: int, r: int, q: int) -> int:
    """c(n, r) by the Gaussian-binomial recursion, without argument checks.

    Condition on W, the span of the last k = n - r columns, which M and
    M - diag(I_r, 0) share; the first r columns only matter modulo W.
    Counting the subspaces W by t = dim(W meet span(e_1..e_r)) gives
        c(n, r) = q^{rk} |GL_k| sum_{t=0}^{min(r,k)}
                  [r,t]_q [k,k-t]_q q^{(r-t)(k-t)} c(r, r-t)
    with base cases c(m, 0) = |GL_m| and c(m, m) = e_m, the derangement
    count.  Every recursive call has a smaller side, and each term is a
    polynomial in q, so the recursion is defined at every integer q >= 2.
    """
    if r == 0:
        return gl_order.__wrapped__(n, q)
    if r == n:
        return derangements_formula(n, q)
    k = n - r
    total = 0
    for t in range(min(r, k) + 1):
        total += (
            gaussian_binomial(r, t, q)
            * gaussian_binomial(k, k - t, q)
            * q ** ((r - t) * (k - t))
            * shifted_count_recursion(r, r - t, q)
        )
    return q ** (r * k) * gl_order.__wrapped__(k, q) * total


def intersection_count_formula(r: int, n: int, q: int) -> int:
    """Closed-form shifted-intersection count for every rank 0 <= r <= n.

    Evaluates shifted_count_recursion, memoised per process; r = 0 and r = n
    are its base cases gl_order and derangements_formula.  The paper's rank-1
    and rank-2 forms are independent checks of it, not inputs.
    """
    _check_nq(n, q)
    if not isinstance(r, int) or not 0 <= r <= n:
        raise ValueError(f"rank must lie in [0, {n}], got {r!r}")
    return shifted_count_recursion(n, r, q)


def srg_parameters_n2(q: int) -> tuple[int, int, int, int]:
    """Strong-regularity parameter tuple (v, k, lambda, mu) for 2 x 2 matrices."""
    _check_nq(2, q)
    v = q ** 4
    k = q ** 4 - q ** 3 - q ** 2 + q
    lam = q ** 4 - 2 * q ** 3 - q ** 2 + 3 * q
    mu = q ** 4 - 2 * q ** 3 + q
    return v, k, lam, mu


# --- enumeration oracles --------------------------------------------------------


def _charge_oracle_pass(shifts: int, n: int, field: FieldSpec,
                        budget: int | None) -> None:
    """Charge one _shifted_unit_counts pass over shifts matrices of M_n(GF(q)).

    The pass visits shifts * q^(n^2) matrix-shift pairs.  Call it before
    building the shifts, so that a refused pass allocates nothing.
    """
    noun = "shift" if shifts == 1 else "shifts"
    check_budget([(shifts, field.q, n * n)], budget,
                 f"oracle pass over {shifts} {noun} in M_{n}({field!r})")


def _shifted_unit_counts(shifts) -> list[int]:
    """Count invertible N with N - d invertible for each shift d, in one pass.

    The shifts are matrices of one space M_n(GF(q)); the caller has charged
    the pass with _charge_oracle_pass.  In a block of the scan, with
    first row x and tail T, det(N) = x . C and det(N - d) = x . C' - d_0 . C',
    where C' is the cofactor vector of T - d_tail and d_0 is d's first row.
    So the block's table of x . C' (the scan's own when d_tail is zero)
    decides N - d for every x, against its entry at x = d_0.  Shifts that
    share a tail share that table.
    """
    n, field = shifts[0].n, shifts[0].field
    sub = field.sub_table
    block_dets = _block_dets(n, field)
    by_tail: dict[tuple, list] = {}
    for i, d in enumerate(shifts):
        by_tail.setdefault(d.entries[n:], []).append((i, d.index() % field.q ** n))
    counts = [0] * len(shifts)

    def visit(tail, dets):
        for move, members in by_tail.items():
            if any(move):
                shifted = block_dets([sub[a][b] for a, b in zip(tail, move)])
            else:
                shifted = dets
            kept = list(compress(shifted, dets))  # where N is invertible
            for i, x0 in members:
                counts[i] += len(kept) - kept.count(shifted[x0])

    scan_space(n, field, visit)
    return counts


def intersection_count_oracle(
    r: int,
    n: int,
    field: FieldSpec,
    *,
    budget: int | None = None,
) -> int:
    """Count invertible M with M - diag(I_r, 0) invertible, by full enumeration.

    For r = 0 this degenerates to the invertible-matrix count; for r = n it is
    the linear-derangement count.
    """
    _charge_oracle_pass(1, n, field, budget)
    return _shifted_unit_counts([canonical_rank_matrix(n, r, field)])[0]


def rank2_case_decomposition_oracle(
    n: int,
    field: FieldSpec,
    *,
    budget: int | None = None,
) -> tuple[int, int, int]:
    """Case totals (rank 2, rank 0, rank 1) behind the rank-2 count, n >= 3.

    Counts invertible B whose leading 2 x 2 block B1 keeps B1 + I_2
    invertible, classified by the rank of B1.  This set is equinumerous with
    the rank-2 shifted intersection (invert each member, then translate), and
    the case split matches rank2_case_formulas; classifying the intersection
    set by its own leading block does not, because inversion scrambles
    leading-block ranks.
    """
    if n < 3:
        raise ValueError(f"case split needs n >= 3, got {n}")
    check_budget([(1, field.q, n * n)], budget,
                 f"rank-2 case decomposition over M_{n}({field!r})")
    q = field.q
    inc = [field.add(e, 1) for e in range(q)]
    cases = [0, 0, 0]

    def visit(tail, dets):
        # the leading block (b00, b01; b10, b11) depends on the first two
        # digits of the first row: label each, 3 when B1 + I_2 is singular
        b10, b11 = tail[0], tail[1]
        labels = []
        for b01 in range(q):
            for b00 in range(q):
                if _det_flat((inc[b00], b01, b10, inc[b11]), 2, field) == 0:
                    labels.append(3)
                elif _det_flat((b00, b01, b10, b11), 2, field) != 0:
                    labels.append(0)
                else:
                    labels.append(1 if b00 == b01 == b10 == b11 == 0 else 2)
        kept = list(compress(labels * q ** (n - 2), dets))  # where B is invertible
        for case in range(3):
            cases[case] += kept.count(case)

    scan_space(n, field, visit)
    return tuple(cases)


@dataclass(frozen=True)
class CensusRecord:
    """One exact count keyed by (n, q, rank) and the method that produced it."""

    n: int
    q: int
    rank: int
    method: str  # "formula" or "oracle"
    count: int

    def to_json_dict(self) -> dict:
        # count travels as a decimal string so consumers with fixed-width
        # integers cannot silently truncate it
        return {
            "n": self.n,
            "q": self.q,
            "rank": self.rank,
            "method": self.method,
            "count": str(self.count),
        }
