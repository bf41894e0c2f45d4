"""Shared helpers for the test suite: seeded random matrices, fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

from unicayley import index_to_matrix, matrix_space_size

SRC = Path(__file__).resolve().parent.parent / "src"


def random_matrix(rng, n, field):
    return index_to_matrix(rng.randrange(matrix_space_size(n, field)), n, field)


def random_invertible(rng, n, field):
    # Rejection sampling; the invertible density is bounded away from zero.
    while True:
        m = random_matrix(rng, n, field)
        if m.is_invertible():
            return m


def random_distinct_pair(rng, n, field):
    size = matrix_space_size(n, field)
    i = rng.randrange(size)
    j = rng.randrange(size - 1)
    if j >= i:
        j += 1
    return index_to_matrix(i, n, field), index_to_matrix(j, n, field)


def run_python(*args):
    """Run a fresh interpreter on args; return (exit code, stdout, stderr).

    The package comes from this checkout's src and $UNICAYLEY_BUDGET is
    unset, as in perfbench/run.py, so the default budget applies.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("UNICAYLEY_BUDGET", None)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def run_module(*argv):
    """`python -m unicayley argv`: __main__.py exits with main()'s code."""
    return run_python("-m", "unicayley", *argv)
