"""The unitary Cayley graph of M_n(GF(q)), materialized and checked pairwise.

Vertices are all n x n matrices; two are adjacent when their difference is
invertible.  The graph is vertex-transitive and the number of common
neighbors of two distinct vertices depends only on rank(A - B);
census.srg_decide decides strong regularity from those per-rank counts.
This module holds only the explicit graph that checks that decision
without rank theory; the edge relation is "a - b is invertible", and
the pair queries live beside the code they compute with, census (closed
form) and matrices (enumeration).

explicit_graph_build materializes the adjacency relation for tiny spaces: one
scan finds the invertible set, the neighbors of the zero vertex, and every
other vertex's neighbors are that set translated by field addition.
pairwise_srg_test then re-derives the verdict from scratch: it checks the
common-neighbor count of every vertex pair, a whole row of A^2 at a time,
as an independent check that assumes neither rank theory nor
vertex-transitivity.  _column_sums adds up each row's bitsets in bit-sliced
column counters, 16 bitsets at a time through a carry-save block of 15 full
adders (the Harley-Seal scheme of Mula, Kurz and Lemire, "Faster Population
Counts Using AVX2 Instructions", 2018).

The test first checks rows 0, 1, ... in process until lambda and mu are
both fixed; for an unlooped Cayley graph that is row 0 alone.  Every later
row is then a yes/no check against those two counts, so the result is the
same however those rows are shared out.  They are cut into W contiguous
ranges, W the smaller of the CPUs the process may run on and the row
additions over ROW_ADDITIONS_PER_WORKER (1 without os.fork or
os.sched_getaffinity).  Ranges 2..W run in forked children, each answering
by its exit status alone, and range 1 in process.  Every child is reaped
before the test returns or raises, a child out of memory raises MemoryError
and any other failed child RuntimeError, and a child whose parent has gone
stops at its next row.
"""

from __future__ import annotations

import os
from itertools import chain, compress, zip_longest
from typing import NamedTuple

from .errors import check_budget
from .fields import FieldSpec
from .matrices import scan_space

# explicit_graph_build stores one bit per vertex pair; 2^16 vertices is the
# 512 MB point and the hard cap.
HARD_VERTEX_CAP = 1 << 16

# pairwise_srg_test runs one more process per this many row additions, up to
# one per CPU it may run on; below twice this, it forks none.  The test
# alone, in process against two ranges (medians of 14 fresh processes each,
# 2 CPUs, CPython 3.11.7): 5.5 against 8.5 ms at (2,4), 19,456 additions;
# 26 against 29 ms at (2,5), 90,625; 327 against 235 ms at (2,7), 924,385.
# So of graph-build's (2,q) and (3,2), only (2,7) and larger split
ROW_ADDITIONS_PER_WORKER = 1 << 16

# bin() digits to the 0/1 bytes itertools.compress selects by
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")

# the exit status of a forked child: every row it checked matched, one did
# not, or it ran out of memory, as the CLI's exit 4 (1 is left for a child
# that raised anything else)
_MATCH, _DIFFER, _NO_MEMORY = 0, 3, 4


def _column_sums(rows, width: int) -> list[int]:
    """Sum an iterator of bitsets column by column into width bit planes.

    Bit j of planes[p] is bit p of the number of rows with bit j set, and
    width must be at least the bit length of every such number.  A
    Harley-Seal block: the rows come 16 at a time (the last block padded
    with 0) and go through 15 full adders into the local planes ones, twos,
    fours and eights, 8 adders into ones, 4 into twos, 2 into fours and one
    into eights.  Only that last adder's carry, of weight 16, ripples on
    into planes[4:] through half adders, at most once per block.
    """
    planes = [0] * width
    ones = twos = fours = eights = 0
    for (a0, a1, a2, a3, a4, a5, a6, a7,
         b0, b1, b2, b3, b4, b5, b6, b7) in zip_longest(*[rows] * 16, fillvalue=0):
        # each adder adds two inputs of one weight to that weight's plane
        # and carries into the next; a0..a7 leave eights_a of weight 8
        u = ones ^ a0
        twos_a = ones & a0 | u & a1
        ones = u ^ a1
        u = ones ^ a2
        twos_b = ones & a2 | u & a3
        ones = u ^ a3
        u = twos ^ twos_a
        fours_a = twos & twos_a | u & twos_b
        twos = u ^ twos_b
        u = ones ^ a4
        twos_a = ones & a4 | u & a5
        ones = u ^ a5
        u = ones ^ a6
        twos_b = ones & a6 | u & a7
        ones = u ^ a7
        u = twos ^ twos_a
        fours_b = twos & twos_a | u & twos_b
        twos = u ^ twos_b
        u = fours ^ fours_a
        eights_a = fours & fours_a | u & fours_b
        fours = u ^ fours_b
        # b0..b7 the same way, leaving eights_b
        u = ones ^ b0
        twos_a = ones & b0 | u & b1
        ones = u ^ b1
        u = ones ^ b2
        twos_b = ones & b2 | u & b3
        ones = u ^ b3
        u = twos ^ twos_a
        fours_a = twos & twos_a | u & twos_b
        twos = u ^ twos_b
        u = ones ^ b4
        twos_a = ones & b4 | u & b5
        ones = u ^ b5
        u = ones ^ b6
        twos_b = ones & b6 | u & b7
        ones = u ^ b7
        u = twos ^ twos_a
        fours_b = twos & twos_a | u & twos_b
        twos = u ^ twos_b
        u = fours ^ fours_a
        eights_b = fours & fours_a | u & fours_b
        fours = u ^ fours_b
        u = eights ^ eights_a
        carry = eights & eights_a | u & eights_b
        eights = u ^ eights_b
        # the carry of weight 16
        p = 4
        while carry:
            plane = planes[p]
            planes[p] = plane ^ carry
            carry &= plane
            p += 1
    # under 8 rows width can be below 4, and the planes cut off are 0
    planes[:4] = (ones, twos, fours, eights)[:width]
    return planes


def _pairwise_rows(adj: list[int], degree: int, flip: int, rows, found) -> bool:
    """Check the rows of A^2 that rows names against found, [lambda, mu].

    Every non-empty neighbor (non-neighbor) class of these rows must read
    one count, found[0] (found[1]); a None there is set by the first row
    that has such a class.  Return False at the first row whose class reads
    two counts or another count, True if every row matched.  flip is 0 to
    sum the rows of each row's neighbors, or all ones to sum those of its
    non-neighbors instead (see pairwise_srg_test).
    """
    every = (1 << len(adj)) - 1
    width = (len(adj) - degree if flip else degree).bit_length()
    for i in rows:
        bits = adj[i]
        flags = bin(bits ^ flip)[:1:-1].encode().translate(_BIT_FLAGS)
        planes = _column_sums(compress(adj, flags), width)
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
                    return False
            if flip:
                count = degree - count
            if found[c] not in (None, count):
                return False
            found[c] = count
    return True


def _while_parent_lives(rows, parent: int):
    """Yield rows, but raise once the process is no longer parent's child."""
    for i in rows:
        if os.getppid() != parent:
            raise ProcessLookupError(f"parent process {parent} has gone")
        yield i


def _fork_rows(adj: list[int], degree: int, flip: int, rows, found) -> int:
    """Run _pairwise_rows on rows in a forked child; return its pid.

    The child leaves by os._exit, with _MATCH or _DIFFER for what
    _pairwise_rows returned, _NO_MEMORY if it raised MemoryError and 1 if
    it raised anything else, so it runs no exit hook and flushes none of
    the parent's buffers.
    """
    parent = os.getpid()
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        rows = _while_parent_lives(rows, parent)
        code = _MATCH if _pairwise_rows(adj, degree, flip, rows, found) else _DIFFER
    except MemoryError:
        code = _NO_MEMORY
    finally:
        os._exit(code)


def _worker_count(additions: int) -> int:
    """How many processes share a pairwise test of that many row additions."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, additions // ROW_ADDITIONS_PER_WORKER))


def _split_rows(adj: list[int], degree: int, flip: int, found) -> bool:
    """_pairwise_rows over every row, the rows after the head in ranges.

    The head, rows 0, 1, ..., runs in process until found holds no None.
    The rows after it are cut into at most _worker_count contiguous ranges:
    the first runs in process, each other one in a forked child, or in process
    too if its fork fails.  Once the head has found a row that differs, or
    used up every row, nothing is forked.  Every child is reaped before this
    returns or raises, killed first unless it has exited; a child that exits
    with _NO_MEMORY raises MemoryError, and one that exits with any other
    status but _MATCH or _DIFFER raises RuntimeError.
    """
    order = len(adj)
    start = 0
    while start < order and None in found:
        if not _pairwise_rows(adj, degree, flip, [start], found):
            return False
        start += 1
    workers = _worker_count(order * (order - degree if flip else degree))
    cuts = [start + (order - start) * w // workers for w in range(workers + 1)]
    ranges = [range(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
    own = ranges[:1]
    children = []  # pids not yet reaped, in range order
    try:
        for rows in ranges[1:]:
            try:
                children.append(_fork_rows(adj, degree, flip, rows, found))
            except OSError:
                own.append(rows)
        if not _pairwise_rows(adj, degree, flip, chain.from_iterable(own), found):
            return False
        while children:
            code = os.waitstatus_to_exitcode(os.waitpid(children[0], 0)[1])
            pid = children.pop(0)
            if code == _DIFFER:
                return False
            if code == _NO_MEMORY:
                raise MemoryError(f"pairwise worker {pid} ran out of memory")
            if code != _MATCH:
                raise RuntimeError(f"pairwise worker {pid} failed (exit code {code})")
        return True
    finally:
        if children:
            # only a test cut short gets here, so graph-build loads no signal
            from signal import SIGKILL

            for pid in children:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


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

    def __init__(self, adjacency: list[int]):
        self.order = len(adjacency)
        self.adjacency = adjacency

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
        row i on v vertices.  _column_sums adds them up in carry-save
        blocks of 16 into bit planes: planes[p] holds bit p of every
        column's sum.  A
        class of row i (its neighbors, or its non-neighbors, both without i)
        has one count iff every plane is all-ones or all-zeros on it.  Every
        ordered pair is checked.  The adjacency relation must be symmetric,
        as that of a Cayley graph is.

        The rows after those that fix lambda and mu may be shared out among
        forked children; see the module docstring.
        """
        adj = self.adjacency
        order = len(adj)
        degrees = {bits.bit_count() for bits in adj}
        if len(degrees) != 1:
            return PairwiseSrgResult(order, None, None, None, False, note="not regular")
        degree = degrees.pop()
        every = (1 << order) - 1
        if all(bits == every ^ (1 << i) for i, bits in enumerate(adj)):
            # every pair is adjacent, with order - 2 common neighbors
            return PairwiseSrgResult(
                order, degree, order - 2, None, False,
                note="complete graph: no non-adjacent pairs",
            )
        # a dense graph sums the rows of each row's non-neighbors instead
        flip = every if 2 * degree > order else 0
        found = [None, None]  # lambda, mu
        if not _split_rows(adj, degree, flip, found) or None in found:
            return PairwiseSrgResult(
                order, degree, None, None, False,
                note="common-neighbor counts vary within a class",
            )
        lam, mu = found
        return PairwiseSrgResult(order, degree, lam, mu, True)


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
    order = field.q ** (n * n)
    check_budget([(order * (order - 1) // 2, 1, 1)], budget,
                 "explicit graph build", unit="vertex pairs")
    blocks = []
    scan_space(n, field, lambda tail, units: blocks.append(
        "".join(["1" if d else "0" for d in reversed(units)])))
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
    return CayleyGraph(adjacency)
