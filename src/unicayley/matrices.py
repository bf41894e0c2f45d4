"""Exact dense n x n matrices over a FieldSpec, and the enumeration oracles.

Covers ring arithmetic, rank, determinant, the paper's singular-shift lemma,
and canonical enumeration of the full matrix space by integer index (entry
(0,0) is the least significant base-q digit).  One row reduction,
_eliminate, gives every rank and every determinant above the closed forms
for n <= 3.  scan_space is the one full-space loop.  Every enumeration
oracle lives below it and counts what census computes in closed form, each
in one pass charged up front: the shifted-intersection count, the
common-neighbor count of a pair, and the rank-2 case split.
"""

from __future__ import annotations

from itertools import compress, product

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
        # Trusted constructor for arithmetic results and enumeration output.
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

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.n + j]

    # Arithmetic indexes the field's lookup tables directly: every entry was
    # validated when its matrix was built.

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_space(other)
        add = self.field.add_table
        return Matrix._wrap(
            self.n,
            tuple(add[a][b] for a, b in zip(self.entries, other.entries)),
            self.field,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_space(other)
        sub = self.field.sub_table
        return Matrix._wrap(
            self.n,
            tuple(sub[a][b] for a, b in zip(self.entries, other.entries)),
            self.field,
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._same_space(other)
        n = self.n
        f = self.field
        add, mul = f.add_table, f.mul_table
        a = self.entries
        b = other.entries
        out = [0] * (n * n)
        for i in range(n):
            base = i * n
            for j in range(n):
                acc = 0
                for t in range(n):
                    acc = add[acc][mul[a[base + t]][b[t * n + j]]]
                out[base + j] = acc
        return Matrix._wrap(n, tuple(out), f)

    def determinant(self) -> int:
        return _det_flat(self.entries, self.n, self.field)

    def rank(self) -> int:
        n = self.n
        rows = [list(self.entries[i * n:(i + 1) * n]) for i in range(n)]
        return len(_eliminate(rows, self.field)[0])

    def is_invertible(self) -> bool:
        return _det_flat(self.entries, self.n, self.field) != 0

    def index(self) -> int:
        """Position of this matrix in the canonical enumeration of its space."""
        code = 0
        q = self.field.q
        for e in reversed(self.entries):
            code = code * q + e
        return code

    def to_literal(self) -> str:
        n = self.n
        return ";".join(
            ",".join(str(e) for e in self.entries[i * n:(i + 1) * n])
            for i in range(n)
        )

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n, self.entries, self.field))

    def __repr__(self):
        return f"Matrix({self.to_literal()!r}, {self.field!r})"


# --- constructors -------------------------------------------------------------


def zero_matrix(n: int, field: FieldSpec) -> Matrix:
    return Matrix._wrap(n, (0,) * (n * n), field)


def identity_matrix(n: int, field: FieldSpec) -> Matrix:
    return canonical_rank_matrix(n, n, field)


def canonical_rank_matrix(n: int, r: int, field: FieldSpec) -> Matrix:
    """diag(I_r, 0): the canonical representative of rank r."""
    check_rank(r, n)
    flat = [0] * (n * n)
    for i in range(r):
        flat[i * (n + 1)] = 1
    return Matrix._wrap(n, tuple(flat), field)


def matrix_from_rows(rows, field: FieldSpec) -> Matrix:
    rows = [list(r) for r in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("rows must form a square matrix")
    return Matrix(n, [e for r in rows for e in r], field)


def parse_matrix(text: str, field: FieldSpec) -> Matrix:
    """Parse a literal like '1,0;0,1' (rows split by ';', entries by ',')."""
    try:
        rows = [
            [int(tok) for tok in row.split(",")]
            for row in text.strip().split(";")
        ]
    except ValueError:
        raise ValueError(f"malformed matrix literal {text!r}") from None
    return matrix_from_rows(rows, field)


# --- elimination kernels ------------------------------------------------------


def _det_flat(e, n: int, field: FieldSpec) -> int:
    """Determinant of a flat row-major entry sequence.

    Closed forms for n <= 3, with 1 for n = 0 (the empty minor of the n = 1
    block scan); above that, (-1)^swaps times the product of _eliminate's
    pivots, or 0 when a column has none.
    """
    if n < 2:
        return e[0] if n else 1
    mt = field.mul_table
    st = field.sub_table
    if n == 2:
        return st[mt[e[0]][e[3]]][mt[e[1]][e[2]]]
    if n == 3:
        a, b, c, d, x, f, g, h, i = e
        m1 = st[mt[x][i]][mt[f][h]]
        m2 = st[mt[d][i]][mt[f][g]]
        m3 = st[mt[d][h]][mt[x][g]]
        return field.add_table[st[mt[a][m1]][mt[b][m2]]][mt[c][m3]]
    rows = [list(e[r * n:(r + 1) * n]) for r in range(n)]
    pivots, swaps = _eliminate(rows, field)
    if len(pivots) < n:
        return 0
    det = st[0][1] if swaps % 2 else 1
    for pv in pivots:
        det = mt[det][pv]
    return det


def _eliminate(rows: list[list[int]], field: FieldSpec) -> tuple[list[int], int]:
    """Row-reduce a nonempty rectangular list-of-rows in place.

    Returns (pivots, swaps): the pivot entries in column order, so the rank
    is len(pivots), and the number of row exchanges made.  This is the one
    elimination loop of the package, behind both rank and determinant.
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


def singular_shift_criterion(a: Matrix) -> bool:
    """Determinant-and-span test equivalent to "A invertible, A + E_11 singular".

    With columns a_1..a_n of A and v_1 = (1, 0, ..., 0)^T, this holds iff
    det(v_1, a_2, ..., a_n) != 0 and a_1 + v_1 lies in span(a_2, ..., a_n).
    A nonzero determinant makes a_2..a_n independent, so their span has rank
    n - 1 without a second elimination: a_1 + v_1 lies in it iff the
    augmented matrix [a_2 ... a_n | a_1 + v_1] still has rank n - 1.
    """
    n = a.n
    f = a.field
    flat = list(a.entries)
    for i in range(n):
        flat[i * n] = 1 if i == 0 else 0
    if _det_flat(flat, n, f) == 0:
        return False
    e = a.entries
    augmented = [[*e[i * n + 1:(i + 1) * n], e[i * n]] for i in range(n)]
    augmented[0][-1] = f.add_table[e[0]][1]
    return len(_eliminate(augmented, f)[0]) == n - 1


# --- canonical enumeration ----------------------------------------------------


def matrix_space_size(n: int, field: FieldSpec) -> int:
    return field.q ** (n * n)


def index_to_matrix(i: int, n: int, field: FieldSpec) -> Matrix:
    size = matrix_space_size(n, field)
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


def enumerate_matrices(n: int, field: FieldSpec, *, budget: int | None = None):
    """Iterate every matrix of the space exactly once, in ascending index order.

    A budget problem raises eagerly, before the first matrix is produced.
    """
    check_budget([(1, field.q, n * n)], budget, f"enumeration of M_{n}({field!r})")
    return (Matrix._wrap(n, flat, field) for flat in _iter_flat(n * n, field.q))


def _block_dets(n: int, field: FieldSpec):
    """Return dets(tail): the determinants of one block, for every first row.

    tail is rows 1..n-1 flat, and entry x of dets(tail) belongs to the first
    row whose base-q digits, least significant first, are x's.  Expanding
    along row 0 gives det = sum_j x_j * C_j, C_j = (-1)^j times the minor of
    tail without column j (1 for n = 1, the empty minor), so the q^n values
    come from n minors, tabulated one digit x_j at a time.
    """
    q, add, mul = field.q, field.add_table, field.mul_table
    neg = field.sub_table[0]
    minors = [[i for i in range(n * n - n) if i % n != j] for j in range(n)]

    def dets(tail) -> list[int]:
        out = None
        for j, positions in enumerate(minors):
            c = _det_flat([tail[i] for i in positions], n - 1, field)
            mc = mul[neg[c] if j % 2 else c]
            if out is None:
                out = [mc[d] for d in range(q)]
            elif c == 0:
                out *= q
            else:
                out = [s for d in range(q) for s in map(add[mc[d]].__getitem__, out)]
        return out

    return dets


def scan_space(n: int, field: FieldSpec, visit) -> None:
    """Call visit(tail, dets) once per block of the space, in ascending index order.

    Row 0 holds the n least significant base-q digits of a matrix index, so
    the q^n matrices that share rows 1..n-1 (the flat tuple tail) form one
    block of consecutive indices; dets lists their determinants in index
    order (see _block_dets).  This is the one full-space loop; callers keep
    their own tallies.  It charges nothing: each public entry point charges
    its whole work through errors.check_budget before it builds anything or
    calls this.
    """
    dets = _block_dets(n, field)
    for tail in _iter_flat(n * n - n, field.q):
        visit(tail, dets(tail))


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
    the linear-derangement count.  The rank is checked before the charge.
    """
    check_rank(r, n)
    _charge_oracle_pass(1, n, field, budget)
    return _shifted_unit_counts([canonical_rank_matrix(n, r, field)])[0]


def common_neighbors_bruteforce(
    a: Matrix, b: Matrix, *, budget: int | None = None
) -> int:
    """Count vertices adjacent to both a and b by scanning the whole space.

    M is adjacent to both exactly when N = M - a and N - (b - a) are
    invertible, and N runs over the whole space as M does; no rank theory.
    a and b must share a space, checked before the charge.
    """
    shift = b - a
    _charge_oracle_pass(1, a.n, a.field, budget)
    return _shifted_unit_counts([shift])[0]


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
