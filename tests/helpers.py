"""Shared helpers for the test suite: seeded random matrices."""

from unicayley import index_to_matrix, matrix_space_size


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

