"""Closed-form matrix counts over GF(q) and the strong-regularity decision.

Every count is exact (arbitrary-precision integers throughout).  The central
family is the "shifted intersection" count: the number of invertible n x n
matrices M such that M - diag(I_r, 0) is also invertible.  A Gaussian-binomial
recursion gives it in closed form for every rank 0 <= r <= n, from the base
cases r = 0 (the general linear group order) and r = n (linear
derangements).  The paper's own forms for r = 1 and r = 2 are kept as
independent checks of the recursion.  rank_counts takes the per-rank counts
from the closed form or, importing matrices only then, from enumeration;
srg_decide compares them rank by rank.  common_neighbors_by_rank is a pair
query's closed form.  Every enumeration oracle lives in matrices, beside
the scan, so a closed-form decision never loads the enumeration side.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import NamedTuple

from .fields import FieldSpec, factor_prime_power


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


def _gl_tail(n: int, q: int, start: int) -> int:
    """prod_{k=start}^{n-1} (q^n - q^k), the last factors of |GL_n(q)|."""
    out = 1
    qn = q ** n
    for k in range(start, n):
        out *= qn - q ** k
    return out


@_validated
def gl_order(n: int, q: int) -> int:
    """Number of invertible n x n matrices over GF(q)."""
    return _gl_tail(n, q, 0)


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
    return (q ** n - q ** (n - 1) - 1) * _gl_tail(n, q, 1)


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
    return head * _gl_tail(n, q, 2)


def rank2_case_formulas(n: int, q: int) -> tuple[int, int, int]:
    """Per-case closed forms behind the rank-2 count, for n >= 3.

    The rank-2 total splits by the rank of a distinguished leading 2 x 2
    block: case 1 collects rank 2, case 2 rank 0, case 3 rank 1.
    """
    _check_nq(n, q)
    if n < 3:
        raise ValueError(f"case split needs n >= 3, got {n}")
    tail = _gl_tail(n, q, 2)
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
        return _gl_tail(n, q, 0)
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
    return q ** (r * k) * _gl_tail(k, q, 0) * total


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


def rank_counts(n: int, field: FieldSpec, rank: int | None, method: str, *,
                budget: int | None = None) -> list[int]:
    """[c(n, rank)], or c(n, r) for every r = 0..n when rank is None.

    method="formula" evaluates intersection_count_formula for each rank.
    method="oracle" charges one pass over the shifts diag(I_r, 0) against
    the budget, then builds them and counts by enumeration in that pass;
    only this branch imports matrices.
    """
    _check_nq(n, field.q)
    ranks = range(n + 1) if rank is None else (rank,)
    if method == "formula":
        return [intersection_count_formula(r, n, field.q) for r in ranks]
    from .matrices import (_charge_oracle_pass, _shifted_unit_counts,
                           canonical_rank_matrix)

    _charge_oracle_pass(n + 1 if rank is None else 1, n, field, budget)
    return _shifted_unit_counts([canonical_rank_matrix(n, r, field) for r in ranks])


def common_neighbors_by_rank(a, b) -> int:
    """Common-neighbor count of two matrices via the rank-class reduction.

    The closed-form shifted-intersection count for r = rank(a - b), whose
    canonical representative is diag(I_r, 0); a == b gives rank 0, the
    degree.  matrices.common_neighbors_bruteforce is its oracle.
    """
    return intersection_count_formula((a - b).rank(), a.n, a.field.q)


def srg_parameters_n2(q: int) -> tuple[int, int, int, int]:
    """Strong-regularity parameter tuple (v, k, lambda, mu) for 2 x 2 matrices."""
    _check_nq(2, q)
    v = q ** 4
    k = q ** 4 - q ** 3 - q ** 2 + q
    lam = q ** 4 - 2 * q ** 3 - q ** 2 + 3 * q
    mu = q ** 4 - 2 * q ** 3 + q
    return v, k, lam, mu


class CensusRecord(NamedTuple):
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


class SrgWitness(NamedTuple):
    """Two rank classes whose common-neighbor counts disagree."""

    rank_pair: tuple[int, int]
    counts: tuple[int, int]


class SrgReport(NamedTuple):
    """Verdict of the strong-regularity decision for one (n, q)."""

    n: int
    q: int
    order: int
    degree: int
    lam: int
    mu_by_rank: dict[int, int]
    is_srg: bool
    parameters: tuple[int, int, int, int] | None
    witness: SrgWitness | None
    note: str | None = None

    def to_json_dict(self) -> dict:
        doc = {
            "n": self.n,
            "q": self.q,
            "order": self.order,
            "degree": self.degree,
            "lambda": self.lam,
            "mu_by_rank": {str(r): self.mu_by_rank[r] for r in sorted(self.mu_by_rank)},
            "is_srg": self.is_srg,
            "parameters": list(self.parameters) if self.parameters else None,
            "witness": (
                {
                    "rank_pair": list(self.witness.rank_pair),
                    "counts": list(self.witness.counts),
                }
                if self.witness
                else None
            ),
        }
        if self.note is not None:
            doc["note"] = self.note
        return doc


SRG_METHODS = ("formula", "oracle")


def srg_decide(
    n: int,
    field: FieldSpec,
    *,
    method: str = "formula",
    budget: int | None = None,
) -> SrgReport:
    """Decide strong regularity of the unitary Cayley graph of M_n(GF(q)).

    counts[r] is the common-neighbor count of the zero vertex and
    diag(I_r, 0): the degree for r = 0, lambda for r = n and mu for rank
    class r = 1..n-1.  method="formula" takes them from
    intersection_count_formula, which has a closed form for every rank, and
    does no enumeration.  method="oracle" takes them from one full-space pass
    over the n + 1 shifts, charged (n + 1) * q^(n^2) against the budget
    before it starts.  Both check their degree against gl_order, which the
    formula path meets by construction.  For n = 2 the parameters are
    checked against the paper's closed-form tuple on both paths; a mismatch
    raises RuntimeError.  Complete graphs (n = 1) are reported as not
    strongly regular by convention.
    """
    if method not in SRG_METHODS:
        raise ValueError(f"method must be one of {SRG_METHODS}, got {method!r}")
    counts = rank_counts(n, field, None, method, budget=budget)
    q = field.q
    order = q ** (n * n)
    degree = gl_order(n, q)
    if counts[0] != degree:
        raise RuntimeError(
            f"degree count {counts[0]} disagrees with closed form {degree}"
        )
    lam = counts[n]
    if n == 1:
        return SrgReport(
            n=n, q=q, order=order, degree=degree, lam=lam,
            mu_by_rank={}, is_srg=False, parameters=None, witness=None,
            note="complete graph: every pair is adjacent, so the "
                 "non-adjacent condition is vacuous and the graph is "
                 "excluded by convention",
        )
    mu_by_rank = {r: counts[r] for r in range(1, n)}
    is_srg = len(set(mu_by_rank.values())) == 1
    parameters = None
    witness = None
    if is_srg:
        parameters = (order, degree, lam, mu_by_rank[1])
        if n == 2 and parameters != srg_parameters_n2(q):
            raise RuntimeError(
                f"measured parameters {parameters} disagree with the "
                f"closed-form tuple {srg_parameters_n2(q)}"
            )
    else:
        r1, r2 = next(
            (a, b)
            for a, b in combinations(mu_by_rank, 2)
            if mu_by_rank[a] != mu_by_rank[b]
        )
        witness = SrgWitness((r1, r2), (mu_by_rank[r1], mu_by_rank[r2]))
    return SrgReport(
        n=n, q=q, order=order, degree=degree, lam=lam,
        mu_by_rank=mu_by_rank, is_srg=is_srg,
        parameters=parameters, witness=witness,
    )
