"""Independent checks of unicayley's command outputs.

Nothing here imports unicayley.  Every expected count comes from the
Gaussian-binomial recursion for the shifted-intersection count c(n, r): the
number of invertible n x n matrices M over GF(q) with M - diag(I_r, 0) also
invertible.  Field moduli are checked with Rabin's irreducibility test, a
different algorithm from the trial division the program uses.

Each check_* function takes the parsed JSON document a command printed and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product

CHECK_NAMES_ALL = (
    "rank1-singularity",
    "rank1-count",
    "rank2-count",
    "recurrence",
    "rank-reduction",
)


# --- counts -------------------------------------------------------------------


def gl_order(n: int, q: int) -> int:
    """|GL_n(q)| = prod_{i<n} (q^n - q^i); 1 for n = 0."""
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def derangements(n: int, q: int) -> int:
    """Invertible n x n matrices with neither 0 nor 1 as an eigenvalue."""
    e = 1
    for i in range(1, n + 1):
        e = e * (q ** i - 1) * q ** (i - 1) + (-1) ** i * q ** (i * (i - 1) // 2)
    return e


def gaussian_binomial(a: int, b: int, q: int) -> int:
    """Number of b-dimensional subspaces of GF(q)^a."""
    if not 0 <= b <= a:
        return 0
    num = den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@lru_cache(maxsize=None)
def shifted_count(n: int, r: int, q: int) -> int:
    """c(n, r) by conditioning on W, the span of the last k = n - r columns.

    c(n, r) = q^{rk} |GL_k| sum_t [r,t]_q [k,k-t]_q q^{(r-t)(k-t)} c(r, r-t)
    with base cases c(m, 0) = |GL_m| and c(m, m) = the derangement count.
    """
    if not 0 <= r <= n:
        raise ValueError(f"rank must lie in [0, {n}], got {r}")
    if r == 0:
        return gl_order(n, q)
    if r == n:
        return derangements(n, q)
    k = n - r
    total = 0
    for t in range(min(r, k) + 1):
        total += (
            gaussian_binomial(r, t, q)
            * gaussian_binomial(k, k - t, q)
            * q ** ((r - t) * (k - t))
            * shifted_count(r, r - t, q)
        )
    return q ** (r * k) * gl_order(k, q) * total


def srg_parameters_n2(q: int) -> tuple[int, int, int, int]:
    """The paper's parameters (v, k, lambda, mu) for 2 x 2 matrices."""
    return (
        q ** 4,
        q ** 4 - q ** 3 - q ** 2 + q,
        q ** 4 - 2 * q ** 3 - q ** 2 + 3 * q,
        q ** 4 - 2 * q ** 3 + q,
    )


# --- polynomials over GF(p), ascending coefficient lists ------------------------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymod(a: list[int], m: list[int], p: int) -> list[int]:
    a = _trim([c % p for c in a])
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        c = a[-1] * inv_lead % p
        shift = len(a) - len(m)
        for i, mc in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mc) % p
        _trim(a)
    return a


def _polymulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _polymod(out, m, p)


def _polygcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _polymod(a, b, p)
    return a


def _x_power_mod(e: int, m: list[int], p: int) -> list[int]:
    """x^e modulo m over GF(p)."""
    result, base = [1], _polymod([0, 1], m, p)
    while e:
        if e & 1:
            result = _polymulmod(result, base, m, p)
        base = _polymulmod(base, base, m, p)
        e >>= 1
    return result


def _sub_x(a: list[int], p: int) -> list[int]:
    a = list(a) + [0] * max(0, 2 - len(a))
    a[1] = (a[1] - 1) % p
    return _trim(a)


def rabin_irreducible(poly: list[int], p: int) -> bool:
    """Rabin's test for a monic polynomial of degree k over GF(p).

    Irreducible iff x^{p^k} = x mod f and gcd(x^{p^{k/d}} - x, f) = 1 for
    every prime d dividing k.
    """
    k = len(poly) - 1
    if _sub_x(_x_power_mod(p ** k, poly, p), p):
        return False
    for d in range(2, k + 1):
        if k % d == 0 and all(d % s for s in range(2, d)):
            g = _polygcd(poly, _sub_x(_x_power_mod(p ** (k // d), poly, p), p), p)
            if len(g) > 1:
                return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The monic irreducible of degree k that is smallest comparing
    coefficients from x^{k-1} down to the constant term."""
    for high_to_low in product(range(p), repeat=k):
        coeffs = list(reversed(high_to_low)) + [1]
        if rabin_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ValueError(f"no irreducible of degree {k} over GF({p})")


# --- output checks --------------------------------------------------------------


def _expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def check_srg(doc: dict, n: int, q: int) -> list[str]:
    problems: list[str] = []
    _expect(problems, "n", doc.get("n"), n)
    _expect(problems, "q", doc.get("q"), q)
    _expect(problems, "order", doc.get("order"), q ** (n * n))
    _expect(problems, "degree", doc.get("degree"), shifted_count(n, 0, q))
    _expect(problems, "lambda", doc.get("lambda"), shifted_count(n, n, q))
    mu = {str(r): shifted_count(n, r, q) for r in range(1, n)}
    _expect(problems, "mu_by_rank", doc.get("mu_by_rank"), mu)
    _expect(problems, "is_srg", doc.get("is_srg"), n == 2)
    if n == 2:
        _expect(problems, "parameters", doc.get("parameters"),
                list(srg_parameters_n2(q)))
    else:
        _expect(problems, "parameters", doc.get("parameters"), None)
    if n >= 3:
        witness = doc.get("witness") or {}
        ranks = witness.get("rank_pair") or []
        counts = witness.get("counts")
        if len(ranks) != 2 or ranks[0] == ranks[1]:
            problems.append(f"witness rank pair {ranks!r} is not two ranks")
        else:
            want = [mu.get(str(r)) for r in ranks]
            _expect(problems, "witness counts", counts, want)
            if counts and counts[0] == counts[1]:
                problems.append(f"witness counts {counts!r} do not differ")
    return problems


def check_census(doc: dict, n: int, q: int, ranks, method: str) -> list[str]:
    problems: list[str] = []
    _expect(problems, "n", doc.get("n"), n)
    _expect(problems, "q", doc.get("q"), q)
    methods = ("formula", "oracle") if method == "both" else (method,)
    want = [
        {"n": n, "q": q, "rank": r, "method": m, "count": str(shifted_count(n, r, q))}
        for r in ranks
        for m in methods
    ]
    _expect(problems, "records", doc.get("records"), want)
    if method == "both":
        _expect(problems, "agrees", doc.get("agrees"), {str(r): True for r in ranks})
    return problems


_NUMBERS = re.compile(r"\d+")


def check_verify(doc: dict, n: int, q: int, seed: int) -> list[str]:
    problems: list[str] = []
    _expect(problems, "n", doc.get("n"), n)
    _expect(problems, "q", doc.get("q"), q)
    _expect(problems, "seed", doc.get("seed"), seed)
    _expect(problems, "all_pass", doc.get("all_pass"), True)
    names = [name for name in CHECK_NAMES_ALL if name != "rank2-count" or n >= 2]
    checks = doc.get("checks") or []
    _expect(problems, "check names", [c.get("check") for c in checks], names)
    for c in checks:
        name = c.get("check")
        if c.get("pass") is not True:
            problems.append(f"check {name} did not pass: {c.get('detail')!r}")
        numbers = [int(x) for x in _NUMBERS.findall(c.get("detail") or "")]
        if name == "rank1-singularity":
            _expect(problems, f"{name} matrices", numbers, [q ** (n * n)])
        elif name == "rank1-count":
            _expect(problems, f"{name} counts", numbers, [shifted_count(n, 1, q)] * 2)
        elif name == "rank2-count":
            _expect(problems, f"{name} counts", numbers[:2], [shifted_count(n, 2, q)] * 2)
    return problems


def check_graph_build(doc: dict, n: int, q: int) -> list[str]:
    problems: list[str] = []
    order = q ** (n * n)
    gl = gl_order(n, q)
    _expect(problems, "n", doc.get("n"), n)
    _expect(problems, "q", doc.get("q"), q)
    _expect(problems, "order", doc.get("order"), order)
    _expect(problems, "edges", doc.get("edges"), order * gl // 2)
    pw = doc.get("pairwise_srg") or {}
    _expect(problems, "pairwise is_srg", pw.get("is_srg"), n == 2)
    _expect(problems, "pairwise degree", pw.get("degree"), gl)
    if n == 2:
        _expect(problems, "pairwise lambda", pw.get("lambda"), shifted_count(2, 2, q))
        _expect(problems, "pairwise mu", pw.get("mu"), shifted_count(2, 1, q))
    return problems


def check_field_info(doc: dict, p: int, k: int) -> list[str]:
    problems: list[str] = []
    _expect(problems, "p", doc.get("p"), p)
    _expect(problems, "k", doc.get("k"), k)
    _expect(problems, "q", doc.get("q"), p ** k)
    if k == 1:
        _expect(problems, "modulus", doc.get("modulus"), None)
        return problems
    modulus = doc.get("modulus")
    if not isinstance(modulus, list) or len(modulus) != k + 1 or modulus[-1] != 1:
        problems.append(f"modulus {modulus!r} is not monic of degree {k}")
        return problems
    if not rabin_irreducible(modulus, p):
        problems.append(f"modulus {modulus!r} is reducible over GF({p})")
    _expect(problems, "modulus", modulus, list(smallest_irreducible(p, k)))
    return problems
