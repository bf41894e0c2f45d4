"""The unitary Cayley graph of M_n(GF(q)), materialized and checked pairwise.

Vertices are all n x n matrices; two are adjacent when their difference is
invertible.  The graph is vertex-transitive and the number of common
neighbors of two distinct vertices depends only on rank(A - B);
census.srg_decide decides strong regularity from those per-rank counts.
This module holds the pair queries and the explicit graph that checks that
decision without rank theory.

explicit_graph_build materializes the adjacency relation for tiny spaces: one
scan finds the invertible set, the neighbors of the zero vertex, and every
other vertex's neighbors are that set translated by field addition.
pairwise_srg_test then re-derives the verdict from scratch: it checks the
common-neighbor count of every vertex pair, a whole row of A^2 at a time,
as an independent check that assumes neither rank theory nor
vertex-transitivity.  _column_sums adds up each row's bitsets in bit-sliced
column counters through a carry-save tree that parks one pending carry per
bit plane (the Harley-Seal scheme of Mula, Kurz and Lemire, "Faster
Population Counts Using AVX2 Instructions", 2018).
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .census import intersection_count_formula
from .errors import check_budget
from .fields import FieldSpec
from .matrices import (
    Matrix,
    _charge_oracle_pass,
    _shifted_unit_counts,
    matrix_space_size,
    scan_space,
)

# explicit_graph_build stores one bit per vertex pair; 2^16 vertices is the
# 512 MB point and the hard cap.
HARD_VERTEX_CAP = 1 << 16

# bin() digits to the 0/1 bytes itertools.compress selects by
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _column_sums(rows, width: int) -> list[int]:
    """Sum an iterator of bitsets column by column into width bit planes.

    Bit j of planes[p] is bit p of the number of rows with bit j set, and
    width must be at least the bit length of every such number.  A
    carry-save tree: each pair of rows goes through a full adder with plane
    0, an odd last row paired with 0.  Its carry, of weight 2, is parked in
    plane 1's slot if that is empty (holds 0); otherwise the two carries go
    through a full adder with plane 1 and the new carry moves on to plane 2,
    and so on, so a pair costs one full adder with plane 0 and about one
    more up the tree.  Once the rows run out, each parked carry is rippled
    upwards through half adders.
    """
    planes = [0] * width
    parked = [0] * width
    for a in rows:
        b = next(rows, 0)
        low = planes[0]
        half = low ^ a
        planes[0] = half ^ b
        carry = low & a | half & b
        p = 1
        while carry:
            held = parked[p]
            if not held:
                parked[p] = carry
                break
            parked[p] = 0
            plane = planes[p]
            half = plane ^ held
            planes[p] = half ^ carry
            carry = plane & held | half & carry
            p += 1
    for start, carry in enumerate(parked):
        p = start
        while carry:
            plane = planes[p]
            planes[p] = plane ^ carry
            carry &= plane
            p += 1
    return planes


def adjacent(a: Matrix, b: Matrix) -> bool:
    """True iff a - b is invertible; symmetric, never true on the diagonal."""
    return (a - b).is_invertible()


def common_neighbors_bruteforce(
    a: Matrix, b: Matrix, *, budget: int | None = None
) -> int:
    """Count vertices adjacent to both a and b by scanning the whole space.

    M is adjacent to both exactly when N = M - a and N - (b - a) are
    invertible, and N runs over the whole space as M does; no rank theory.
    """
    _charge_oracle_pass(1, a.n, a.field, budget)
    return _shifted_unit_counts([b - a])[0]


def common_neighbors_by_rank(a: Matrix, b: Matrix) -> int:
    """Common-neighbor count via the rank-class reduction.

    Computes r = rank(a - b) and returns the closed-form shifted-intersection
    count for the canonical representative diag(I_r, 0); equals the
    brute-force count for every pair, and a == b gives rank 0, the degree.
    """
    r = (a - b).rank()
    return intersection_count_formula(r, a.n, a.field.q)


class PairwiseSrgResult(NamedTuple):
    """From-scratch verdict obtained by examining every vertex pair."""

    order: int
    degree: int | None
    lam: int | None
    mu: int | None
    is_srg: bool
    note: str | None = None


class CayleyGraph:
    """Materialized adjacency relation, one bit set per vertex."""

    def __init__(self, n: int, field: FieldSpec, adjacency: list[int]):
        self.n = n
        self.field = field
        self.order = len(adjacency)
        self.adjacency = adjacency

    def is_edge(self, i: int, j: int) -> bool:
        return (self.adjacency[i] >> j) & 1 == 1

    def degree(self, i: int) -> int:
        return self.adjacency[i].bit_count()

    def edge_count(self) -> int:
        return sum(bits.bit_count() for bits in self.adjacency) // 2

    def pairwise_srg_test(self) -> PairwiseSrgResult:
        """Check the strong-regularity conditions on every vertex pair.

        Row i of A^2 holds the common-neighbor counts of i with every j at
        once: the sum of the rows of A that row i names.  Once the graph is
        known to be regular of degree d, A^2 = dJ - (J - A)A as well, so a
        dense graph sums the rows of i's non-neighbors (i included unless it
        has a loop) and subtracts from d; either way at most v / 2 rows per
        row i on v vertices.  _column_sums adds them up in a carry-save
        tree of bit planes: planes[p] holds bit p of every column's sum.  A
        class of row i (its neighbors, or its non-neighbors, both without i)
        has one count iff every plane is all-ones or all-zeros on it.  Every
        ordered pair is checked.  The adjacency relation must be symmetric,
        as that of a Cayley graph is.
        """
        degrees = {self.degree(i) for i in range(self.order)}
        if len(degrees) != 1:
            return PairwiseSrgResult(
                self.order, None, None, None, False, note="not regular"
            )
        degree = degrees.pop()
        adj = self.adjacency
        every = (1 << self.order) - 1
        if all(bits == every ^ (1 << i) for i, bits in enumerate(adj)):
            # every pair is adjacent, with order - 2 common neighbors
            return PairwiseSrgResult(
                self.order, degree, self.order - 2, None, False,
                note="complete graph: no non-adjacent pairs",
            )
        # a dense graph sums the rows of each row's non-neighbors instead
        flip = every if 2 * degree > self.order else 0
        added = self.order - degree if flip else degree
        vary = PairwiseSrgResult(
            self.order, degree, None, None, False,
            note="common-neighbor counts vary within a class",
        )
        found = [None, None]  # lambda, mu
        for i, bits in enumerate(adj):
            flags = bin(bits ^ flip)[:1:-1].encode().translate(_BIT_FLAGS)
            planes = _column_sums(compress(adj, flags), added.bit_length())
            others = every ^ (1 << i)
            near = bits & others
            for c, mask in enumerate((near, others ^ near)):
                if not mask:
                    continue
                count = 0
                for p, plane in enumerate(planes):
                    plane &= mask
                    if plane == mask:
                        count += 1 << p
                    elif plane:
                        return vary
                if flip:
                    count = degree - count
                if found[c] not in (None, count):
                    return vary
                found[c] = count
        lam, mu = found
        if lam is None or mu is None:
            return vary
        return PairwiseSrgResult(self.order, degree, lam, mu, True)


def explicit_graph_build(
    n: int, field: FieldSpec, *, budget: int | None = None
) -> CayleyGraph:
    """Materialize the full adjacency relation for a tiny matrix space.

    Neighbors of A are exactly A + U over the invertible set U.  One scan
    collects U as a bitset, the row of the zero vertex.  Every other row
    comes from an earlier one.  Element codes are base-p coefficient strings
    and field addition adds them digit by digit mod p, so with step = p^t
    over the n^2 * k base-p digits of a vertex index, row c * step + w is
    row w translated by c at digit t: in each block of p * step bits, bits
    whose digit t is below p - c move up c * step and the rest move down
    (p - c) * step.  The build uses only the unit set and field addition,
    no rank theory.  Refuses spaces above the vertex cap, then charges the
    budget, before the scan, the order * (order - 1) / 2 vertex pairs whose
    counts pairwise_srg_test checks; that bounds its
    order * min(degree, order - degree) row additions.
    """
    check_budget([(1, field.q, n * n)], HARD_VERTEX_CAP, "explicit graph build",
                 unit="vertices", remedy="the vertex cap does not follow the budget")
    order = matrix_space_size(n, field)
    check_budget([(order * (order - 1) // 2, 1, 1)], budget,
                 "explicit graph build", unit="vertex pairs")
    blocks = []
    scan_space(n, field, lambda tail, dets: blocks.append(
        "".join(["1" if d else "0" for d in reversed(dets)])))
    adjacency = [int("".join(reversed(blocks)), 2)]
    p = field.p
    every = (1 << order) - 1
    for t in range(n * n * field.k):
        step = p ** t
        # a 1 at the start of each p * step block
        starts = every // ((1 << (p * step)) - 1)
        for c in range(1, p):
            low = starts * ((1 << ((p - c) * step)) - 1)
            high = every ^ low
            up, down = c * step, (p - c) * step
            adjacency += [(bits & low) << up | (bits & high) >> down
                          for bits in adjacency[:step]]
    return CayleyGraph(n, field, adjacency)
