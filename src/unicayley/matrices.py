"""Exact dense n x n matrices over a FieldSpec, and the enumeration oracles.

Covers difference, rank, determinant and canonical indexing of the
q^(n^2) matrices of the space (entry (0,0) is the least significant base-q
digit).  Each question has one engine: one row reduction, _eliminate,
gives the rank and determinant of one matrix, and _span_table's spans, a
span being the set of its vectors' codes, answer for a whole space.  Every
enumeration oracle lives here, counts what census computes in closed form,
is charged up front and never eliminates.  No count forms a matrix, and
_oracle_terms charges each for census and verify alike: _transfer_counts
gives the shifted-intersection count and the common-neighbor count of a
pair by column-span transfer, and rank2_case_decomposition_oracle the
rank-2 case split, enumerating columns 0 and 1 and counting the rest.
scan_space is the one full-space loop, for the two callers that need each
matrix: the graph's unit set and the rank-1 singularity check, which decides
the paper's singular-shift lemma by column spans in _shift_criterion; it
flags a block's units by its tail rows' span, and _scan_terms states its
charge.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import prod

from .errors import check_budget, check_rank
from .fields import FieldSpec


class Matrix:
    """Immutable square matrix with row-major integer-coded entries."""

    __slots__ = ("n", "entries", "field")

    def __init__(self, n: int, entries, field: FieldSpec):
        if n < 1:
            raise ValueError(f"matrix side must be positive, got {n}")
        entries = tuple(entries)
        if len(entries) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(entries)}")
        for e in entries:
            field._check(e)
        self.n = n
        self.entries = entries
        self.field = field

    @classmethod
    def _wrap(cls, n: int, entries: tuple, field: FieldSpec) -> "Matrix":
        # Trusted constructor for differences and enumeration output.
        m = object.__new__(cls)
        m.n = n
        m.entries = entries
        m.field = field
        return m

    def _same_space(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError(f"expected a Matrix, got {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_space(other)
        # every entry was validated when its matrix was built
        sub = self.field.sub_table
        return Matrix._wrap(
            self.n,
            tuple(sub[a][b] for a, b in zip(self.entries, other.entries)),
            self.field,
        )

    def _reduce(self) -> tuple[list[int], int]:
        n = self.n
        return _eliminate([list(self.entries[i * n:(i + 1) * n]) for i in range(n)],
                          self.field)

    def determinant(self) -> int:
        """(-1)^swaps times the product of the pivots, or 0 when a column has none."""
        pivots, swaps = self._reduce()
        if len(pivots) < self.n:
            return 0
        mul = self.field.mul_table
        det = self.field.sub_table[0][1] if swaps % 2 else 1
        for pv in pivots:
            det = mul[det][pv]
        return det

    def rank(self) -> int:
        return len(self._reduce()[0])

    def to_literal(self) -> str:
        n = self.n
        return ";".join(
            ",".join(str(e) for e in self.entries[i * n:(i + 1) * n])
            for i in range(n)
        )


# --- constructors -------------------------------------------------------------


def canonical_rank_matrix(n: int, r: int, field: FieldSpec) -> Matrix:
    """diag(I_r, 0): the canonical representative of rank r."""
    check_rank(r, n)
    flat = [0] * (n * n)
    for i in range(r):
        flat[i * (n + 1)] = 1
    return Matrix._wrap(n, tuple(flat), field)


def parse_matrix(text: str, field: FieldSpec) -> Matrix:
    """Parse a literal like '1,0;0,1' (rows split by ';', entries by ',')."""
    try:
        rows = [
            [int(tok) for tok in row.split(",")]
            for row in text.strip().split(";")
        ]
    except ValueError:
        raise ValueError(f"malformed matrix literal {text!r}") from None
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("rows must form a square matrix")
    return Matrix(n, [e for r in rows for e in r], field)


# --- elimination kernels ------------------------------------------------------


def _eliminate(rows: list[list[int]], field: FieldSpec) -> tuple[list[int], int]:
    """Row-reduce a nonempty rectangular list-of-rows in place.

    Returns (pivots, swaps): the pivot entries in column order, so the rank
    is len(pivots), and the number of row exchanges made.  This is the one
    elimination loop of the package, behind rank and determinant only.
    """
    m = len(rows)
    width = len(rows[0])
    sub, mul, inv = field.sub_table, field.mul_table, field.inv_table
    pivots: list[int] = []
    swaps = 0
    for col in range(width):
        rank = len(pivots)
        # Pivot: first nonzero entry scanning top to bottom in this column.
        piv = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            swaps += 1
        prow = rows[rank]
        pivots.append(prow[col])
        if rank + 1 == m:
            # no row left to eliminate: skip the pivot's inverse, a
            # square-and-multiply on fields too large for stored tables
            break
        ipv = inv[prow[col]]
        for r in range(rank + 1, m):
            lead = rows[r][col]
            if lead != 0:
                mc = mul[mul[lead][ipv]]
                rr = rows[r]
                for j in range(col, width):
                    rr[j] = sub[rr[j]][mc[prow[j]]]
    return pivots, swaps


# --- canonical enumeration ----------------------------------------------------


def index_to_matrix(i: int, n: int, field: FieldSpec) -> Matrix:
    size = field.q ** (n * n)
    if not 0 <= i < size:
        raise ValueError(f"index {i} outside [0, {size})")
    q = field.q
    flat = []
    for _ in range(n * n):
        i, d = divmod(i, q)
        flat.append(d)
    return Matrix._wrap(n, tuple(flat), field)


def _iter_flat(size: int, q: int):
    """Yield every tuple of size base-q digits, in ascending index order."""
    # itertools.product counts with its leftmost slot most significant;
    # reversing each tuple puts the least significant digit first.
    for t in product(range(q), repeat=size):
        yield t[::-1]


def first_rows(n: int, field: FieldSpec) -> list[tuple]:
    """The q^n first rows of a scan_space block, in the order of its unit flags."""
    return list(_iter_flat(n, field.q))


def _span_table(n: int, field: FieldSpec):
    """Return (spaces, extend): the spans of GF(q)^n met so far, and their extensions.

    A vector is its index code, coordinate 0 least significant, and a
    subspace is an id keyed by the frozenset of its vectors' codes, so one
    span reached two ways is one id, and "U contains v" is a membership test
    on spaces[u].  extend(u) lists, for every vector v, the id of span(U, v),
    or None for v in U.  It builds each new span W once, coset by coset: W is
    U together with U + a v for every a != 0, and every code of W outside U
    maps to W.  Each list is built on first use and kept for every later
    call; no elimination, inverse or rank enters.
    """
    q, add, mul = field.q, field.add_table, field.mul_table
    place = [q ** i for i in range(n)]  # a vector's code is sum(digit * place)
    spaces = [frozenset([0])]
    ids = {spaces[0]: 0}
    extensions = {}

    def extend(u):
        if u not in extensions:
            inside = spaces[u]
            # each member as the add-table rows of its digits
            members = [[add[c // p % q] for p in place] for c in inside]
            out = [None] * q ** n
            for c, v in enumerate(_iter_flat(n, q)):
                if c not in inside and out[c] is None:
                    scale = [mul[y] for y in v]
                    new = [sum(x[y[a]] * p for x, y, p in zip(m, scale, place))
                           for a in range(1, q) for m in members]
                    w = inside.union(new)
                    if w not in ids:
                        ids[w] = len(spaces)
                        spaces.append(w)
                    for code in new:
                        out[code] = ids[w]
            extensions[u] = out
        return extensions[u]

    return spaces, extend


def _shift_criterion(spaces, extend, rest) -> frozenset:
    """The paper's singular-shift criterion on column codes, by _span_table's spans.

    rest holds the codes of columns a_2..a_n of A; the result holds the
    codes of a_1 + v_1, v_1 = (1, 0, ..., 0)^T of code 1, that meet it.  A
    is invertible with A + E_11 singular iff det(v_1, a_2, ..., a_n) != 0
    and a_1 + v_1 lies in W = span(a_2, ..., a_n): the walk over rest
    reaches W with no None, W does not hold v_1, and W holds a_1 + v_1.  So
    the result is W's member set, or empty, and one walk serves every a_1.
    Read by rows, it would restate scan_space's flags, so the rank-1 check
    stays an independent test.
    """
    w = 0
    for code in rest:
        w = extend(w)[code]
        if w is None:
            return frozenset()
    return frozenset() if 1 in spaces[w] else spaces[w]


def scan_space(n: int, field: FieldSpec, visit) -> None:
    """Call visit(tail, units) once per block of the space, in ascending index order.

    Row 0 holds the n least significant base-q digits of a matrix index, so
    the q^n matrices that share rows 1..n-1 (the flat tuple tail) form one
    block of consecutive indices; units holds their 0/1 invertibility flags
    in index order, one per row of first_rows(n, field).  M is invertible
    iff its tail rows are independent and row 0 lies outside their span U,
    so the scan walks _span_table's extend over the tail rows' codes: a None
    on the way makes every flag 0, and otherwise the flag of first row c is
    c not in U.  One bytes object serves every tail that reaches the same
    span, or none, so callers must not mutate it, and bytes cannot be.
    This is the one full-space loop, kept for the checks that need each
    matrix; the counts go by transfer, and the case split enumerates
    columns 0 and 1 and counts the rest.  Callers keep their own tallies.
    It charges nothing: each public entry point charges its whole work
    through errors.check_budget before it builds anything or calls this.
    """
    q = field.q
    spaces, extend = _span_table(n, field)
    place = [q ** i for i in range(n)]
    units = {None: bytes(q ** n)}  # a dependent tail: every matrix singular
    for tail in _iter_flat(n * n - n, q):
        u = 0
        for i in range(0, n * n - n, n):
            u = extend(u)[sum(x * p for x, p in zip(tail[i:i + n], place))]
            if u is None:
                break
        if u not in units:
            units[u] = bytes([c not in spaces[u] for c in range(q ** n)])
        visit(tail, units[u])


def _scan_terms(n: int, q: int) -> list[tuple[int, int, int]]:
    """The charge of one scan_space pass over M_n(GF(q)): its q^(n^2) matrices."""
    return [(1, q, n * n)]


# --- enumeration oracles --------------------------------------------------------


def _oracle_terms(shifts: int, n: int, q: int) -> list[tuple[int, int, int]]:
    """The charge of one _transfer_counts call over shifts matrices of M_n(GF(q)).

    The charge is shifts * q^(n^2), the matrix-shift pairs of a full scan,
    as check_budget terms.  It bounds the transfer's work, at most
    sum_j min(q^(nj), [n, j]_q^2) * q^n per shift.  One pass also charges
    the case split, as a bound on its q^(2n) enumerated column pairs.
    """
    return [(shifts, q, n * n)]


def _charge_oracle_pass(shifts: int, n: int, field: FieldSpec,
                        budget: int | None) -> None:
    """Charge _oracle_terms before any shift is built: a refusal allocates nothing."""
    noun = "shift" if shifts == 1 else "shifts"
    check_budget(_oracle_terms(shifts, n, field.q), budget,
                 f"oracle pass over {shifts} {noun} in M_{n}({field!r})")


def _transfer_counts(shifts, sizes: list | None = None) -> list[int]:
    """Count invertible M with M - d invertible for each shift d, by column spans.

    The shifts are matrices of one space M_n(GF(q)); the caller has charged
    them by _oracle_terms.  M and M - d are both invertible iff,
    column by column, m_j lies outside U = span(m_<j) and m_j - d_j outside
    V = span(m_<j - d_<j).  So each count keeps a table from the state
    (U, V) to the number of column prefixes that reach it, and extends every
    state by every vector of GF(q)^n (as index codes, coordinate 0 least
    significant).  Permuting the columns of M and d together changes
    neither condition, so the columns with d_j = 0 go first, where U = V.
    The last column is counted, not enumerated:
    #{m : m not in U, m - d not in V} = q^n - 2 q^(n-1) + |U meet (V + d)|,
    and that last term is q^(n-2) if U != V (two hyperplanes), q^(n-1) if
    U = V contains d, and 0 if U = V does not.

    Spans come from _span_table, whose extension lists serve every shift.
    No elimination, inverse, rank class, Gaussian binomial or closed form
    enters, and d may be any matrix.  With a list sizes, the number of
    states after each of the first n - 1 columns is appended to it for each
    shift.
    """
    n, field = shifts[0].n, shifts[0].field
    q, sub = field.q, field.sub_table
    place = [q ** i for i in range(n)]
    spaces, extend = _span_table(n, field)

    counts = []
    for shift in shifts:
        e = shift.entries
        *columns, last = sorted((e[j::n] for j in range(n)), key=any)
        states = {(0, 0): 1}
        for d in columns:
            # the code of m - d, for every m, from each coordinate's q differences
            minus = [[sub[a][b] * p for a in range(q)] for b, p in zip(d, place)]
            moved = [sum(map(list.__getitem__, minus, m)) for m in _iter_flat(n, q)]
            step = {}
            while states:  # popped, so each state is freed as its successors arrive
                (u, v), ways = states.popitem()
                ev = extend(v)
                hits = Counter(zip(extend(u), map(ev.__getitem__, moved)))
                for pair, times in hits.items():
                    if None not in pair:
                        step[pair] = step.get(pair, 0) + times * ways
            states = step
            if sizes is not None:
                sizes.append(len(states))
        code = sum(x * p for x, p in zip(last, place))
        total = 0
        for (u, v), ways in states.items():
            if u != v:
                meet = q ** (n - 2)
            else:
                meet = q ** (n - 1) if code in spaces[u] else 0
            total += ways * (q ** n - 2 * q ** (n - 1) + meet)
        counts.append(total)
    return counts


def common_neighbors_bruteforce(
    a: Matrix, b: Matrix, *, budget: int | None = None
) -> int:
    """Count vertices adjacent to both a and b by column-span transfer.

    M is adjacent to both exactly when N = M - a and N - (b - a) are
    invertible, and N runs over the whole space as M does; no rank theory.
    a and b must share a space, checked before the charge.
    """
    shift = b - a
    _charge_oracle_pass(1, a.n, a.field, budget)
    return _transfer_counts([shift])[0]


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

    Only columns 0 and 1, whose top entries form B1, are enumerated, by
    _span_table's extend(0) and extend(u); dependent pairs and label 3 are
    dropped.  Every later column j lies outside the j-dimensional span
    before it in q^n - q^j ways, whatever that span, so it is counted as a
    factor.  Charged as one _oracle_terms pass, an upper bound on the work.
    """
    if n < 3:
        raise ValueError(f"case split needs n >= 3, got {n}")
    check_budget(_oracle_terms(1, n, field.q), budget,
                 f"rank-2 case decomposition over M_{n}({field!r})")
    q, inc, mul = field.q, field.add_table[1], field.mul_table  # inc[e] = e + 1

    def case(b00, b01, b10, b11):
        # the label of the leading block B1, 3 when B1 + I_2 is singular:
        # a 2 x 2 block is singular iff its two diagonal products are equal
        if mul[inc[b00]][inc[b11]] == mul[b01][b10]:
            return 3
        if mul[b00][b11] != mul[b01][b10]:
            return 0
        return 1 if b00 == b01 == b10 == b11 == 0 else 2

    _, extend = _span_table(n, field)
    # B1 is the top two entries of columns 0 and 1: one list of labels per
    # top of column 0, indexed by column 1's code
    tops = [(c % q, c // q % q) for c in range(q ** n)]
    labels = {(b00, b10): [case(b00, b01, b10, b11) for b01, b11 in tops]
              for b00, b10 in product(range(q), repeat=2)}
    cases = Counter()
    for c, u in enumerate(extend(0)):
        if u is not None:
            cases.update(label for w, label in zip(extend(u), labels[tops[c]])
                         if w is not None)
    rest = prod(q ** n - q ** j for j in range(2, n))
    return cases[0] * rest, cases[1] * rest, cases[2] * rest
