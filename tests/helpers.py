"""Shared helpers for the test suite: every matrix of a space, reference
matrix arithmetic, the singular-shift criterion by elimination and by
spans, the rank-2 case split by block scan, seeded random matrices, fresh
interpreters."""

import os
import subprocess
import sys
from collections import Counter
from itertools import compress, product
from pathlib import Path

from unicayley import Matrix, index_to_matrix
from unicayley.matrices import _shift_criterion, first_rows, scan_space

SRC = Path(__file__).resolve().parent.parent / "src"


def all_matrices(n, field):
    """Every matrix of M_n(field) in ascending index order, each one checked.

    The per-matrix reference: entry (0,0) is the least significant base-q
    digit of the index, and product counts with its last slot fastest.
    """
    for digits in product(range(field.q), repeat=n * n):
        yield Matrix(n, reversed(digits), field)


def matrix_sum(a, b):
    """a + b entry by entry from the field's add_table, checked on the way out."""
    add = a.field.add_table
    return Matrix(a.n, [add[x][y] for x, y in zip(a.entries, b.entries)], a.field)


def matrix_product(a, b):
    """a b as row-by-column sums of products from the field's tables,
    checked on the way out."""
    n, add, mul = a.n, a.field.add_table, a.field.mul_table
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0
            for t in range(n):
                acc = add[acc][mul[a.entries[i * n + t]][b.entries[t * n + j]]]
            out.append(acc)
    return Matrix(n, out, a.field)


def singular_shift_criterion(a):
    """The reference for "A invertible, A + E_11 singular", by elimination.

    With columns a_1..a_n of A and v_1 = (1, 0, ..., 0)^T, this holds iff
    det(v_1, a_2, ..., a_n) != 0 and a_1 + v_1 lies in span(a_2, ..., a_n).
    A nonzero determinant makes a_2..a_n independent, so a_1 + v_1 lies in
    their span iff [a_2 ... a_n | a_1 + v_1] still has rank n - 1.
    """
    n, field, e = a.n, a.field, a.entries
    flat = list(e)
    for i in range(n):
        flat[i * n] = int(i == 0)
    if Matrix(n, flat, field).determinant() == 0:
        return False
    augmented = [x for i in range(n) for x in (*e[i * n + 1:(i + 1) * n], e[i * n])]
    augmented[n - 1] = field.add_table[e[0]][1]
    return Matrix(n, augmented, field).rank() == n - 1


def span_shift_criterion(a, spaces, extend):
    """matrices._shift_criterion on a's column codes, over one _span_table."""
    n, q = a.n, a.field.q
    codes = [sum(a.entries[i * n + j] * q ** i for i in range(n)) for j in range(n)]
    first = codes[0] - a.entries[0] + a.field.add_table[a.entries[0]][1]
    return first in _shift_criterion(spaces, extend, codes[1:])


def block_scan_case_split(n, field):
    """The reference for rank2_case_decomposition_oracle, by scan_space's unit flags.

    Every invertible B whose leading 2 x 2 block B1 keeps B1 + I_2
    invertible, tallied (rank 2, rank 0, rank 1) by the rank of B1.  Both
    labels come from Matrix.rank, not from the oracle's 2 x 2 products.
    """
    inc = field.add_table[1]  # inc[e] = e + 1

    def label(b00, b01, b10, b11):
        if Matrix(2, (inc[b00], b01, b10, inc[b11]), field).rank() < 2:
            return None
        return Matrix(2, (b00, b01, b10, b11), field).rank()

    # B1's rows start a block's first row and its tail: one list per tail start
    rows = first_rows(n, field)
    labels = {(b10, b11): [label(x[0], x[1], b10, b11) for x in rows]
              for b10, b11 in product(range(field.q), repeat=2)}
    cases = Counter()

    def visit(tail, units):
        cases.update(compress(labels[tail[:2]], units))  # where B is invertible

    scan_space(n, field, visit)
    return cases[2], cases[0], cases[1]


def matrix_index(m):
    """Position of m in the canonical enumeration: entry (0,0) least significant."""
    return sum(e * m.field.q ** i for i, e in enumerate(m.entries))


def random_matrix(rng, n, field):
    return index_to_matrix(rng.randrange(field.q ** (n * n)), n, field)


def random_invertible(rng, n, field):
    # Rejection sampling; the invertible density is bounded away from zero.
    while True:
        m = random_matrix(rng, n, field)
        if m.determinant() != 0:
            return m


def random_distinct_pair(rng, n, field):
    size = field.q ** (n * n)
    i = rng.randrange(size)
    j = rng.randrange(size - 1)
    if j >= i:
        j += 1
    return index_to_matrix(i, n, field), index_to_matrix(j, n, field)


def _env():
    # the package from this checkout's src
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_python(*args, preexec_fn=None):
    """Run a fresh interpreter on args; return (exit code, stdout, stderr).

    preexec_fn runs in the child alone, before the interpreter starts.
    """
    proc = subprocess.run([sys.executable, *args], env=_env(), preexec_fn=preexec_fn,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def popen_module(*argv):
    """Start `python -m unicayley argv` with stdout and stderr on pipes."""
    return subprocess.Popen([sys.executable, "-m", "unicayley", *argv],
                            env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def run_module(*argv, preexec_fn=None):
    """`python -m unicayley argv`: __main__.py exits with main()'s code."""
    return run_python("-m", "unicayley", *argv, preexec_fn=preexec_fn)
