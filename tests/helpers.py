"""Shared helpers for the test suite: every matrix of a space, seeded random
matrices, fresh interpreters."""

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

from unicayley import Matrix, index_to_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


def all_matrices(n, field):
    """Every matrix of M_n(field) in ascending index order, each one checked.

    The per-matrix reference: entry (0,0) is the least significant base-q
    digit of the index, and product counts with its last slot fastest.
    """
    for digits in product(range(field.q), repeat=n * n):
        yield Matrix(n, reversed(digits), field)


def random_matrix(rng, n, field):
    return index_to_matrix(rng.randrange(field.q ** (n * n)), n, field)


def random_invertible(rng, n, field):
    # Rejection sampling; the invertible density is bounded away from zero.
    while True:
        m = random_matrix(rng, n, field)
        if m.is_invertible():
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


def run_python(*args):
    """Run a fresh interpreter on args; return (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, *args], env=_env(),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def popen_module(*argv):
    """Start `python -m unicayley argv` with stdout and stderr on pipes."""
    return subprocess.Popen([sys.executable, "-m", "unicayley", *argv],
                            env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def run_module(*argv):
    """`python -m unicayley argv`: __main__.py exits with main()'s code."""
    return run_python("-m", "unicayley", *argv)
