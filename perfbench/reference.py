"""A fixed reference job that tracks the host's speed during a run.

Usage: python perfbench/reference.py

Runs the three kinds of work the unicayley commands do, in a fresh
interpreter and in about equal shares of time:

- PASSES counts of the invertible 3x3 matrices over GF(3) with tuple-table
  field arithmetic in one thread, like field-table builds;
- PASSES such counts split over a ThreadPoolExecutor with os.cpu_count()
  workers, like scans under `--threads auto`;
- one pass of big-int adjacency bitsets, built with `bits |= 1 << idx` and
  compared pairwise with `(a & b).bit_count()`, like graph-build, on the
  Cayley graph of Z_N with the units of Z_N as connection set.

It prints one line, which must equal expected_output(): the two counts,
PASSES * |GL_3(3)| each, then the graph's adjacency bits N * phi(N) and its
common-neighbour total over all vertex pairs, N * C(phi(N), 2).

Each kind slows by a different amount when the shared host is busy: the
table arithmetic more than the bitset work.  The mix puts the job's slowdown
between those of the workloads.  It imports nothing from unicayley, so no
change to the program can move its time; run.py divides the commands' time
by it to cancel the drift of the shared host.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

Q = 3
N2 = 9
PASSES = 3
GL_3_3 = 11232
N = 900
ADD = tuple(tuple((a + b) % Q for b in range(Q)) for a in range(Q))
MUL = tuple(tuple(a * b % Q for b in range(Q)) for a in range(Q))
NEG = tuple(-a % Q for a in range(Q))


def det3(m) -> int:
    a, b, c, d, e, f, g, h, i = m
    t1 = MUL[a][ADD[MUL[e][i]][NEG[MUL[f][h]]]]
    t2 = MUL[b][ADD[MUL[d][i]][NEG[MUL[f][g]]]]
    t3 = MUL[c][ADD[MUL[d][h]][NEG[MUL[e][g]]]]
    return ADD[ADD[t1][NEG[t2]]][t3]


def count_invertible(lo: int, hi: int) -> int:
    count = 0
    for k in range(lo, hi):
        entries = []
        for _ in range(N2):
            k, r = divmod(k, Q)
            entries.append(r)
        if det3(entries):
            count += 1
    return count


def threaded_count(workers: int) -> int:
    size = Q ** N2
    step = -(-size // workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(lambda lo: count_invertible(lo, min(lo + step, size)),
                            range(0, size, step)))


def bitset_pass() -> tuple[int, int]:
    units = [u for u in range(N) if math.gcd(u, N) == 1]
    adjacency = []
    for v in range(N):
        bits = 0
        for u in units:
            bits |= 1 << ((v + u) % N)
        adjacency.append(bits)
    common = 0
    for i in range(N):
        bits = adjacency[i]
        for j in range(i + 1, N):
            common += (bits & adjacency[j]).bit_count()
    return sum(bits.bit_count() for bits in adjacency), common


def expected_output() -> str:
    phi = sum(1 for u in range(N) if math.gcd(u, N) == 1)
    return f"{PASSES * GL_3_3} {PASSES * GL_3_3} {N * phi} {N * math.comb(phi, 2)}"


def main() -> None:
    single = sum(count_invertible(0, Q ** N2) for _ in range(PASSES))
    threaded = sum(threaded_count(os.cpu_count() or 1) for _ in range(PASSES))
    edges, common = bitset_pass()
    print(single, threaded, edges, common)


if __name__ == "__main__":
    main()
