"""The unitary Cayley graph of M_n(GF(q)), materialized and checked pairwise.

Vertices are all n x n matrices; two are adjacent when their difference is
invertible.  The graph is vertex-transitive and the number of common
neighbors of two distinct vertices depends only on rank(A - B);
census.srg_decide decides strong regularity from those per-rank counts.
This module holds only the edge relation and the explicit graph that
checks that decision without rank theory; the pair queries live beside the
code they compute with, census (closed form) and matrices (enumeration).

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

The rows of A^2 are independent, so a large test cuts them into contiguous
ranges, one per CPU the process may run on, and forks a child for every
range but the first, which it scans itself.  Each child reports the lambda
and mu its range saw, or that a count varied, as one ASCII message on a
pipe; the verdict merges every range's.  A small test, or one on a single CPU or a platform
without fork, scans every row in process.  Every child is reaped before the
test returns or raises, and a child whose parent has gone stops at its next
row.
"""

from __future__ import annotations

import os
from itertools import chain, compress
from typing import NamedTuple

from .errors import check_budget
from .fields import FieldSpec
from .matrices import Matrix, matrix_space_size, scan_space

# explicit_graph_build stores one bit per vertex pair; 2^16 vertices is the
# 512 MB point and the hard cap.
HARD_VERTEX_CAP = 1 << 16

# pairwise_srg_test runs one more process per this many row additions, up to
# one per CPU it may run on; below twice this, it forks none
ROW_ADDITIONS_PER_WORKER = 1 << 16

# bin() digits to the 0/1 bytes itertools.compress selects by
_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")

# what a range of rows of A^2 reports when a class's count varies, and the
# message a child writes then
_VARY = "vary"


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


def _pairwise_rows(adj: list[int], degree: int, flip: int, rows):
    """Check the rows of A^2 that rows names; return (lambda, mu) or _VARY.

    lambda (mu) is the one count that every neighbor (non-neighbor) class of
    these rows reads, or None if every such class is empty; _VARY if a
    class reads two counts, or two rows' classes of one kind disagree.  flip
    is 0 to sum the rows of each row's neighbors, or all ones to sum those of
    its non-neighbors instead (see pairwise_srg_test).
    """
    every = (1 << len(adj)) - 1
    width = (len(adj) - degree if flip else degree).bit_length()
    found = [None, None]  # lambda, mu
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
                    return _VARY
            if flip:
                count = degree - count
            if found[c] not in (None, count):
                return _VARY
            found[c] = count
    return tuple(found)


def _while_parent_lives(rows, parent: int):
    """Yield rows, but raise once the process is no longer parent's child."""
    for i in rows:
        if os.getppid() != parent:
            raise ProcessLookupError(f"parent process {parent} has gone")
        yield i


def _decode(message: bytes):
    """A child's message, "<lambda> <mu>" with - for None or "vary", parsed."""
    if message == _VARY.encode():
        return _VARY
    words = message.split(b" ")
    if len(words) != 2 or not all(w == b"-" or w.isdigit() for w in words):
        raise RuntimeError(f"malformed message from a pairwise worker: {message!r}")
    return tuple(None if w == b"-" else int(w) for w in words)


def _fork_rows(adj: list[int], degree: int, flip: int, rows):
    """Run _pairwise_rows on rows in a forked child; return (pid, pipe).

    The child writes its result to the pipe as one ASCII message and leaves
    by os._exit, 0 after the write and 1 if anything raised, so it runs no
    exit hook and flushes none of the parent's buffers.
    """
    parent = os.getpid()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, os.fdopen(read, "rb")
    code = 1
    try:
        os.close(read)
        found = _pairwise_rows(adj, degree, flip, _while_parent_lives(rows, parent))
        if found != _VARY:
            found = " ".join("-" if c is None else str(c) for c in found)
        os.write(write, found.encode())
        code = 0
    finally:
        os._exit(code)


def _worker_count(additions: int) -> int:
    """How many processes share a pairwise test of that many row additions."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, additions // ROW_ADDITIONS_PER_WORKER))


def _split_rows(adj: list[int], degree: int, flip: int, workers: int):
    """_pairwise_rows over every row, in workers contiguous ranges at once.

    The first range runs in process, each other one in a forked child, or
    in process too if its fork fails; the results merge as pairwise_srg_test
    says.  Every child is reaped before this returns or raises, killed first
    unless its result was read.
    """
    order = len(adj)
    cuts = [order * w // workers for w in range(workers + 1)]
    ranges = [range(a, b) for a, b in zip(cuts, cuts[1:])]
    own = ranges[:1]
    children = {}  # pid: the read end of its pipe, until the child is reaped
    try:
        for rows in ranges[1:]:
            try:
                pid, pipe = _fork_rows(adj, degree, flip, rows)
            except OSError:
                own.append(rows)
            else:
                children[pid] = pipe
        seen = [_pairwise_rows(adj, degree, flip, chain.from_iterable(own))]
        for pid, pipe in list(children.items()):
            if _VARY in seen:
                return _VARY
            message = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            pipe.close()
            if status:
                raise RuntimeError(f"pairwise worker {pid} failed "
                                   f"(exit code {os.waitstatus_to_exitcode(status)})")
            seen.append(_decode(message))
    finally:
        if children:
            # only a test cut short gets here, so graph-build loads no signal
            from signal import SIGKILL

            for pid, pipe in children.items():
                os.kill(pid, SIGKILL)
                pipe.close()
                os.waitpid(pid, 0)
    if _VARY in seen:
        return _VARY
    merged = [{c for c in counts if c is not None} for counts in zip(*seen)]
    if any(len(counts) > 1 for counts in merged):
        return _VARY
    return tuple(counts.pop() if counts else None for counts in merged)


def adjacent(a: Matrix, b: Matrix) -> bool:
    """True iff a - b is invertible; symmetric, never true on the diagonal."""
    return (a - b).is_invertible()


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

        The rows are cut into W contiguous ranges, W the smaller of the CPUs
        the process may run on and the row additions over
        ROW_ADDITIONS_PER_WORKER (1 without os.fork or
        os.sched_getaffinity).  Ranges 2..W run in forked children, range 1
        in process; a count that varies in any range, or two ranges that saw
        different lambdas or different mus, gives the varying verdict, so
        the result is the same for every W.  Every child is reaped before
        this returns; a failed child raises RuntimeError.
        """
        return _pairwise_srg_test(self.adjacency)


def _pairwise_srg_test(adj: list[int], workers: int | None = None) -> PairwiseSrgResult:
    """CayleyGraph.pairwise_srg_test on adj, in workers ranges if given."""
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
    if workers is None:
        workers = _worker_count(order * (order - degree if flip else degree))
    found = _split_rows(adj, degree, flip, workers)
    if found == _VARY or None in found:
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
