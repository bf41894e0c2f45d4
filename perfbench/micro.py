"""Seeded microbenchmarks of the field and determinant kernels.

Usage: python perfbench/micro.py SEED

Prints one JSON object of nanoseconds per call, each the median of REPEATS
timed passes over the same seeded inputs:

- fields.mul_ns: checked FieldSpec.mul on GF(2^4), a table field;
- fields.mul_raw_ns: checked FieldSpec.mul on GF(3^6), above TABLE_LIMIT;
- matrices.det_ns.n2 / .n3: Matrix.determinant of 2x2 / 3x3 over GF(2^2);
- matrices.det_ns.generic: Matrix.determinant of 4x4 over GF(2), the
  generic elimination path that the srg ladder's (4, 2) rung runs.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

from unicayley.fields import make_field
from unicayley.matrices import Matrix

REPEATS = 5


def _ns_per_call(fn, inputs) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for args in inputs:
            fn(*args)
        samples.append((time.perf_counter_ns() - start) / len(inputs))
    return statistics.median(samples)


def _pairs(rng, q, count):
    return [(rng.randrange(q), rng.randrange(q)) for _ in range(count)]


def _matrices(rng, n, field, count):
    q = field.q
    return [
        (Matrix(n, [rng.randrange(q) for _ in range(n * n)], field),)
        for _ in range(count)
    ]


def main() -> int:
    rng = random.Random(int(sys.argv[1]))
    gf16, gf729 = make_field(2, 4), make_field(3, 6)
    gf4, gf2 = make_field(2, 2), make_field(2)
    det = Matrix.determinant
    out = {
        "fields.mul_ns": _ns_per_call(gf16.mul, _pairs(rng, 16, 20000)),
        "fields.mul_raw_ns": _ns_per_call(gf729.mul, _pairs(rng, 729, 2000)),
        "matrices.det_ns.n2": _ns_per_call(det, _matrices(rng, 2, gf4, 10000)),
        "matrices.det_ns.n3": _ns_per_call(det, _matrices(rng, 3, gf4, 10000)),
        "matrices.det_ns.generic": _ns_per_call(det, _matrices(rng, 4, gf2, 2000)),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
