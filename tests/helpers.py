"""Shared helpers for the test suite: seeded random matrices, shared fields."""

import functools

from unicayley import index_to_matrix, make_field, matrix_space_size


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


@functools.lru_cache(maxsize=None)
def cached_field(p, k=1):
    """make_field(p, k), built once per test session.

    GF(2^8) takes seconds to build its tables; fields are immutable, so
    tests that need one more than once can share it.
    """
    return make_field(p, k)
