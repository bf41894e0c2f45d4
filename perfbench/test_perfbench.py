"""Fast tests of the benchmark's own checks and workloads (no CLI runs)."""

from __future__ import annotations

import copy
import random

import pytest

import checks
import reference
import run

# c(n, r) for r = 0..n, counted by unicayley's enumeration oracle
# (intersection_count_oracle) over every matrix of M_n(GF(q)).
ORACLE_COUNTS = {
    (2, 2): [6, 2, 2],
    (2, 3): [48, 30, 27],
    (2, 4): [180, 132, 124],
    (3, 2): [168, 72, 56, 48],
    (3, 3): [11232, 7344, 6534, 6291],
    (4, 2): [20160, 9408, 7104, 6208, 5824],
}


@pytest.mark.parametrize("nq", sorted(ORACLE_COUNTS))
def test_recursion_matches_oracle(nq):
    n, q = nq
    assert [checks.shifted_count(n, r, q) for r in range(n + 1)] == ORACLE_COUNTS[nq]


def test_rank3_at_n4_has_a_count():
    assert checks.shifted_count(4, 3, 2) == 6208


def test_base_cases():
    assert checks.gl_order(3, 2) == 168
    assert checks.derangements(1, 5) == 3
    assert checks.gaussian_binomial(4, 2, 2) == 35


def test_irreducibility_and_smallest_modulus():
    assert checks.smallest_irreducible(2, 2) == (1, 1, 1)
    assert checks.smallest_irreducible(2, 8) == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert checks.smallest_irreducible(3, 6) == (2, 1, 0, 0, 0, 0, 1)
    assert not checks.rabin_irreducible([1, 0, 1], 2)  # (x + 1)^2
    assert not checks.rabin_irreducible([1, 0, 1, 0, 0, 0, 1], 2)  # (x^3 + x + 1)^2
    # (x^3 + x + 1)(x^3 + x^2 + 1): no roots, no quadratic factor
    assert not checks.rabin_irreducible([1, 1, 1, 1, 1, 1, 1], 2)
    assert checks.rabin_irreducible([1, 1, 0, 1], 2)


def _srg_doc(n, q):
    mu = {str(r): ORACLE_COUNTS[n, q][r] for r in range(1, n)}
    counts = ORACLE_COUNTS[n, q]
    doc = {"n": n, "q": q, "order": q ** (n * n), "degree": counts[0],
           "lambda": counts[n], "mu_by_rank": mu, "is_srg": n == 2,
           "parameters": None, "witness": None}
    if n == 2:
        doc["parameters"] = [q ** 4, counts[0], counts[2], counts[1]]
    else:
        doc["witness"] = {"rank_pair": [1, 2], "counts": [mu["1"], mu["2"]]}
    return doc


def _census_doc(n, q):
    records = [{"n": n, "q": q, "rank": r, "method": m, "count": str(c)}
               for r, c in enumerate(ORACLE_COUNTS[n, q])
               for m in ("formula", "oracle")]
    return {"command": "census", "n": n, "q": q, "records": records,
            "agrees": {str(r): True for r in range(n + 1)}}


def _verify_doc(n, q, seed):
    c = ORACLE_COUNTS[n, q]
    details = {
        "rank1-singularity": f"equivalence holds for all {q ** (n * n)} matrices",
        "rank1-count": f"formula {c[1]} vs oracle {c[1]}",
        "rank2-count": f"formula {c[2]} == oracle {c[2]}; case split [1, 2, 3] matches",
        "recurrence": f"recurrence steps 1..{n} hold",
        "rank-reduction": "50 sampled pairs agree",
    }
    return {"command": "verify", "n": n, "q": q, "seed": seed, "all_pass": True,
            "checks": [{"check": k, "pass": True, "detail": v}
                       for k, v in details.items()]}


def _graph_doc(n, q):
    c = ORACLE_COUNTS[n, q]
    order = q ** (n * n)
    pw = {"is_srg": n == 2, "degree": c[0], "lambda": None, "mu": None,
          "note": None}
    if n == 2:
        pw.update({"lambda": c[2], "mu": c[1]})
    return {"command": "graph-build", "n": n, "q": q, "order": order,
            "edges": order * c[0] // 2, "pairwise_srg": pw}


def _bump(doc, path):
    """Copy doc with the integer (or decimal string) at path raised by one."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    node[path[-1]] = str(int(value) + 1) if isinstance(value, str) else value + 1
    return doc


def _bump_detail(doc, index):
    doc = copy.deepcopy(doc)
    detail = doc["checks"][index]["detail"]
    number = next(tok for tok in detail.split() if tok.isdigit())
    doc["checks"][index]["detail"] = detail.replace(number, str(int(number) + 1), 1)
    return doc


CASES = [
    (lambda: _srg_doc(2, 3), lambda d: checks.check_srg(d, 2, 3),
     [("order",), ("degree",), ("lambda",), ("mu_by_rank", "1"), ("parameters", 3)]),
    (lambda: _srg_doc(3, 2), lambda d: checks.check_srg(d, 3, 2),
     [("degree",), ("lambda",), ("mu_by_rank", "2"), ("witness", "counts", 0)]),
    (lambda: _census_doc(3, 3), lambda d: checks.check_census(d, 3, 3, range(4), "both"),
     [("records", 0, "count"), ("records", 5, "count"), ("records", 7, "count")]),
    (lambda: _graph_doc(2, 4), lambda d: checks.check_graph_build(d, 2, 4),
     [("edges",), ("order",), ("pairwise_srg", "degree"), ("pairwise_srg", "mu")]),
    (lambda: _graph_doc(3, 2), lambda d: checks.check_graph_build(d, 3, 2),
     [("edges",), ("pairwise_srg", "degree")]),
]


@pytest.mark.parametrize("make, check, paths", CASES)
def test_checker_accepts_right_and_rejects_off_by_one(make, check, paths):
    assert check(make()) == []
    for path in paths:
        assert check(_bump(make(), path)), path


@pytest.mark.parametrize("index", [0, 1, 2])
def test_verify_checker_rejects_off_by_one(index):
    doc = _verify_doc(3, 2, 7)
    assert checks.check_verify(doc, 3, 2, 7) == []
    assert checks.check_verify(_bump_detail(doc, index), 3, 2, 7)
    failed = copy.deepcopy(doc)
    failed["checks"][index]["pass"] = False
    failed["all_pass"] = False
    assert checks.check_verify(failed, 3, 2, 7)
    missing = copy.deepcopy(doc)
    del missing["checks"][index]
    assert checks.check_verify(missing, 3, 2, 7)


def test_census_checker_rejects_disagreement():
    doc = _census_doc(2, 2)
    doc["agrees"]["1"] = False
    assert checks.check_census(doc, 2, 2, range(3), "both")


def test_field_info_checker():
    doc = {"command": "field-info", "p": 2, "k": 8, "q": 256,
           "modulus": [1, 1, 0, 1, 1, 0, 0, 0, 1]}
    assert checks.check_field_info(doc, 2, 8) == []
    larger = dict(doc, modulus=[1, 0, 1, 1, 1, 0, 0, 0, 1])  # irreducible, not smallest
    assert checks.rabin_irreducible(larger["modulus"], 2)
    assert checks.check_field_info(larger, 2, 8)
    assert checks.check_field_info(dict(doc, modulus=[0, 1, 0, 1, 1, 0, 0, 0, 1]), 2, 8)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workloads_are_seeded_and_pass_no_threads_flag(workload):
    def argvs(seed):
        return [argv for argv, _ in run.WORKLOADS[workload](random.Random(seed))]

    assert argvs(3) == argvs(3)
    assert all("--threads" not in argv for argv in argvs(3))


def test_reference_job_counts():
    size = reference.Q ** reference.N2
    assert reference.GL_3_3 == checks.gl_order(3, 3)
    assert reference.count_invertible(0, size) == reference.GL_3_3
    assert reference.threaded_count(2) == reference.GL_3_3
    edges, common = reference.bitset_pass()
    counts = f"{reference.PASSES * reference.GL_3_3} " * 2
    assert f"{counts}{edges} {common}" == reference.expected_output()
