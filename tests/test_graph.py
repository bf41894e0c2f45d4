"""Adjacency, invariance laws, the SRG decision, and the pairwise oracle."""

import os
import random
import signal
import time

import pytest

from unicayley import (
    BudgetExceededError,
    CensusRecord,
    DEFAULT_BUDGET,
    Matrix,
    canonical_rank_matrix,
    census,
    common_neighbors_bruteforce,
    derangements_formula,
    explicit_graph_build,
    gl_order,
    graph,
    index_to_matrix,
    make_field,
    rank_counts,
    srg_decide,
)
from unicayley.census import SrgWitness
from unicayley.graph import CayleyGraph, PairwiseSrgResult, _column_sums

from helpers import (
    all_matrices,
    matrix_index,
    matrix_product,
    matrix_sum,
    random_distinct_pair,
    random_invertible,
    random_matrix,
)

F2 = make_field(2)
F3 = make_field(3)


def test_adjacent_examples():
    ident = canonical_rank_matrix(2, 2, F2)
    zero = canonical_rank_matrix(2, 0, F2)
    assert (ident - ident).determinant() == 0
    assert (ident - zero).determinant() != 0
    assert (canonical_rank_matrix(2, 1, F2) - zero).determinant() == 0


def test_adjacent_is_symmetric_exhaustive():
    ms = [index_to_matrix(i, 2, F2) for i in range(16)]
    for a in ms:
        for b in ms:
            assert ((a - b).determinant() != 0) == ((b - a).determinant() != 0)


@pytest.mark.parametrize("a,b,message", [
    (Matrix(2, [0] * 4, F2), Matrix(3, [0] * 9, F2), "dimension mismatch"),
    (Matrix(2, [0] * 4, F2), Matrix(2, [0] * 4, F3), "field mismatch"),
])
def test_bruteforce_rejects_a_mismatch_before_its_charge(a, b, message):
    # budget 1 refuses every pass, so a charge first would raise
    # BudgetExceededError instead
    with pytest.raises(ValueError, match=message):
        common_neighbors_bruteforce(a, b, budget=1)


def test_translation_invariance_random():
    rng = random.Random(11)
    for _ in range(60):
        a = random_matrix(rng, 2, F3)
        b = random_matrix(rng, 2, F3)
        c = random_matrix(rng, 2, F3)
        shifted = matrix_sum(a, c) - matrix_sum(b, c)
        assert ((a - b).determinant() != 0) == (shifted.determinant() != 0)


def test_two_sided_invertible_invariance_random():
    rng = random.Random(12)
    for _ in range(60):
        a = random_matrix(rng, 2, F3)
        b = random_matrix(rng, 2, F3)
        p = random_invertible(rng, 2, F3)
        q = random_invertible(rng, 2, F3)
        moved = (matrix_product(matrix_product(p, a), q)
                 - matrix_product(matrix_product(p, b), q))
        assert ((a - b).determinant() != 0) == (moved.determinant() != 0)


def test_common_neighbors_examples():
    zero = canonical_rank_matrix(2, 0, F2)
    ident = canonical_rank_matrix(2, 2, F2)
    e11 = canonical_rank_matrix(2, 1, F2)
    assert common_neighbors_bruteforce(zero, ident) == 2
    assert common_neighbors_bruteforce(zero, e11) == 2
    assert common_neighbors_bruteforce(zero, zero) == gl_order(2, 2)


@pytest.mark.parametrize("p,k", [(257, 1), (2, 9)])
def test_common_neighbors_above_table_limit(p, k):
    # at n = 1, M is adjacent to a and b iff M differs from both
    field = make_field(p, k)
    a, b = Matrix(1, [3], field), Matrix(1, [field.q - 1], field)
    assert common_neighbors_bruteforce(a, b) == field.q - 2
    assert common_neighbors_bruteforce(a, a) == field.q - 1


def test_pair_counts_by_difference_rank_examples():
    def by_rank(a, b):
        return rank_counts(3, F2, (a - b).rank(), "formula")[0]

    zero = canonical_rank_matrix(3, 0, F2)
    assert by_rank(canonical_rank_matrix(3, 1, F2), zero) == 72
    assert by_rank(canonical_rank_matrix(3, 2, F2), zero) == 56
    assert by_rank(canonical_rank_matrix(3, 3, F2), zero) == derangements_formula(3, 2)
    brute = common_neighbors_bruteforce(zero, zero)
    assert by_rank(zero, zero) == brute == gl_order(3, 2)


def test_rank_class_law_exhaustive_gf2():
    size = 2 ** 4
    expected = {r: rank_counts(2, F2, r, "oracle")[0] for r in (1, 2)}
    for i in range(size):
        a = index_to_matrix(i, 2, F2)
        for j in range(size):
            if i == j:
                continue
            b = index_to_matrix(j, 2, F2)
            r = (a - b).rank()
            assert common_neighbors_bruteforce(a, b) == expected[r]


def test_rank_class_law_sampled_gf3_n3():
    rng = random.Random(77)
    expected = {r: rank_counts(3, F2, r, "oracle")[0] for r in (1, 2, 3)}
    for _ in range(40):
        a, b = random_distinct_pair(rng, 3, F2)
        r = (a - b).rank()
        assert common_neighbors_bruteforce(a, b) == expected[r]


@pytest.mark.parametrize("method", ["formula", "oracle"])
def test_srg_decide_n2(method):
    report = srg_decide(2, F2, method=method)
    assert report.is_srg
    assert report.parameters == (16, 6, 2, 2)
    assert report.order == 16
    assert report.degree == 6
    assert report.lam == 2
    assert report.mu_by_rank == {1: 2}
    assert report.witness is None

    report3 = srg_decide(2, F3, method=method)
    assert report3.is_srg
    assert report3.parameters == (81, 48, 27, 30)


@pytest.mark.parametrize("method", ["formula", "oracle"])
def test_srg_decide_n3_not_srg(method):
    report = srg_decide(3, F2, method=method)
    assert not report.is_srg
    assert report.parameters is None
    assert report.mu_by_rank == {1: 72, 2: 56}
    assert report.witness.rank_pair == (1, 2)
    assert report.witness.counts == (72, 56)
    assert report.lam == derangements_formula(3, 2)


def test_srg_decide_n1_complete_graph():
    for q in (2, 3, 5):
        field = make_field(q)
        report = srg_decide(1, field)
        assert not report.is_srg
        assert report.order == q
        assert report.degree == q - 1
        assert report.lam == q - 2
        assert report.mu_by_rank == {}
        assert report.witness is None
        assert "complete graph" in report.note


def test_srg_report_json_schema():
    doc = srg_decide(3, F2).to_json_dict()
    assert set(doc) == {
        "n", "q", "order", "degree", "lambda", "mu_by_rank",
        "is_srg", "parameters", "witness",
    }
    assert doc["mu_by_rank"] == {"1": 72, "2": 56}
    assert doc["witness"] == {"rank_pair": [1, 2], "counts": [72, 56]}
    assert doc["parameters"] is None

    doc2 = srg_decide(2, F2).to_json_dict()
    assert doc2["parameters"] == [16, 6, 2, 2]
    assert doc2["witness"] is None

    doc1 = srg_decide(1, F3).to_json_dict()
    assert "note" in doc1


@pytest.mark.parametrize("record, name", [
    (CensusRecord(2, 3, 1, "formula", 30), "count"),
    (SrgWitness((1, 2), (72, 56)), "counts"),
    (srg_decide(2, F3), "is_srg"),
    (PairwiseSrgResult(16, 6, 2, 2, True), "mu"),
])
def test_records_are_immutable(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))


def test_srg_budget_refusal():
    with pytest.raises(BudgetExceededError):
        srg_decide(3, F3, method="oracle", budget=500)


def test_srg_oracle_budget_counts_every_scan():
    # each of the 4 scans fits in the budget, but together they do not
    size = 2 ** 9
    with pytest.raises(BudgetExceededError) as exc:
        srg_decide(3, F2, method="oracle", budget=3 * size)
    assert exc.value.required == 4 * size
    assert srg_decide(3, F2, method="oracle", budget=4 * size).lam == 48


def test_srg_formula_needs_no_budget():
    report = srg_decide(4, F2, budget=1)
    assert report.mu_by_rank == {1: 9408, 2: 7104, 3: 6208}
    assert report.witness.counts == (9408, 7104)


@pytest.mark.parametrize("method", ["formula", "oracle"])
def test_srg_decide_checks_its_degree_and_n2_parameters(monkeypatch, method):
    rank_counts = census.rank_counts
    monkeypatch.setattr(census, "rank_counts",
                        lambda *args, **kw: [1] + rank_counts(*args, **kw)[1:])
    with pytest.raises(RuntimeError,
                       match=r"^degree count 1 disagrees with closed form 6$"):
        srg_decide(2, F2, method=method)
    monkeypatch.setattr(census, "rank_counts", rank_counts)
    monkeypatch.setattr(census, "srg_parameters_n2", lambda q: (16, 6, 2, 3))
    with pytest.raises(RuntimeError, match=r"^measured parameters \(16, 6, 2, 2\) "
                       r"disagree with the closed-form tuple \(16, 6, 2, 3\)$"):
        srg_decide(2, F2, method=method)


def test_srg_decide_rejects_unknown_method():
    with pytest.raises(ValueError, match="method"):
        srg_decide(2, F2, method="both")


@pytest.mark.parametrize("method", ["formula", "oracle"])
def test_srg_decide_rejects_a_bad_side(method):
    # before either path builds a shift or a count
    for n in (0, 2.0):
        with pytest.raises(ValueError, match="matrix side"):
            srg_decide(n, F2, method=method)


def test_explicit_build_gf2():
    g = explicit_graph_build(2, F2)
    assert g.order == 16
    assert g.edge_count() == 48
    assert all(g.degree(i) == 6 for i in range(16))
    # adjacency by definition: difference invertible
    for i in range(16):
        for j in range(16):
            a = index_to_matrix(i, 2, F2)
            b = index_to_matrix(j, 2, F2)
            assert g.adjacency[i] >> j & 1 == (i != j and (a - b).determinant() != 0)


def test_explicit_build_triangle():
    g = explicit_graph_build(1, F3)
    assert g.order == 3
    assert g.edge_count() == 3
    res = g.pairwise_srg_test()
    assert not res.is_srg
    assert "complete" in res.note


def test_explicit_build_gf3():
    g = explicit_graph_build(2, F3)
    assert g.order == 81
    assert all(g.degree(i) == 48 for i in range(81))
    res = g.pairwise_srg_test()
    assert res.is_srg
    assert (res.order, res.degree, res.lam, res.mu) == (81, 48, 27, 30)


def test_explicit_build_above_table_limit():
    g = explicit_graph_build(1, make_field(257))
    assert g.edge_count() == 257 * 256 // 2
    assert "complete" in g.pairwise_srg_test().note


def test_explicit_build_n1_is_not_cubic_in_q():
    # one translation per base-p digit value, two masks per row; moving each
    # row through q masks per digit value took q^2 big-int steps at n = 1
    start = time.perf_counter()
    g = explicit_graph_build(1, make_field(2003))
    assert time.perf_counter() - start < 0.5
    assert g.adjacency[0] == (1 << 2003) - 2
    assert g.edge_count() == 2003 * 2002 // 2


def test_pairwise_complete_graph_is_not_cubic_in_q():
    # n = 1 gives a complete graph, settled row by row without the
    # order^2 / 2 pair loop, whose big-int ANDs took seconds at q = 4001
    g = explicit_graph_build(1, make_field(4001))
    start = time.perf_counter()
    res = g.pairwise_srg_test()
    assert time.perf_counter() - start < 1
    assert res == PairwiseSrgResult(4001, 4000, 3999, None, False,
                                    note="complete graph: no non-adjacent pairs")


def test_pairwise_self_loop_graph_is_not_complete():
    # a self-loop at 0 and 1 in place of the edge 0-1 keeps every degree at
    # order - 1, so only the exact row check tells it from a complete graph
    g = explicit_graph_build(1, make_field(5))
    rows = list(g.adjacency)
    rows[0] = rows[0] ^ 0b11
    rows[1] = rows[1] ^ 0b11
    looped = CayleyGraph(rows)
    assert {looped.degree(i) for i in range(5)} == {4}
    res = looped.pairwise_srg_test()
    assert res.note != "complete graph: no non-adjacent pairs"
    assert res.mu is not None  # the pair (0, 1) was tested as non-adjacent


def test_explicit_build_budget_refusal():
    with pytest.raises(BudgetExceededError):
        explicit_graph_build(3, F3, budget=100)
    with pytest.raises(BudgetExceededError):
        explicit_graph_build(2, make_field(17))  # 17^4 vertices exceeds the cap


def test_explicit_build_charges_vertex_pairs():
    # the build charges, before its scan, the order * (order - 1) / 2 pairs
    # whose counts the pairwise test checks; that bounds its
    # order * min(degree, order - degree) row additions
    with pytest.raises(BudgetExceededError) as err:
        explicit_graph_build(2, F3, budget=3239)
    assert err.value.required == 81 * 80 // 2 == 3240
    assert explicit_graph_build(2, F3, budget=3240).order == 81
    # 2^16 vertices pass the vertex cap; 2.1e9 pairs do not pass the default
    with pytest.raises(BudgetExceededError) as err:
        explicit_graph_build(2, make_field(2, 4))
    assert err.value.required == 2 ** 16 * (2 ** 16 - 1) // 2
    # the largest benchmark rung, (2, 7), is charged less than the default
    with pytest.raises(BudgetExceededError) as err:
        explicit_graph_build(2, make_field(7), budget=2_881_199)
    assert err.value.required == 7 ** 4 * (7 ** 4 - 1) // 2 == 2_881_200
    assert err.value.required <= DEFAULT_BUDGET


@pytest.mark.parametrize(
    "n,p,k",
    [(2, 3, 1), (2, 2, 2), (2, 5, 1), (2, 3, 2), (3, 2, 1), (1, 257, 1),
     (1, 2, 8), (1, 3, 5)],
)
def test_translated_rows_are_vertex_plus_units(n, p, k):
    # row v of the translation build is {v + u : u invertible}, computed
    # here by matrix addition; GF(257) lies above TABLE_LIMIT
    field = make_field(p, k)
    g = explicit_graph_build(n, field)
    units = [u for u in all_matrices(n, field) if u.determinant() != 0]
    rng = random.Random(7)
    for v in [0, g.order - 1] + rng.sample(range(g.order), 6):
        vm = index_to_matrix(v, n, field)
        row = {matrix_index(matrix_sum(vm, u)) for u in units}
        assert g.adjacency[v] == sum(1 << i for i in row)


def test_pairwise_agrees_with_rank_class_decision():
    results = {}
    for n, field in [(2, F2), (2, F3), (2, make_field(2, 2)), (2, make_field(5)),
                     (2, make_field(7)), (3, F2), (1, F2), (1, make_field(5))]:
        report = srg_decide(n, field)
        res = results[n, field.q] = explicit_graph_build(n, field).pairwise_srg_test()
        assert res.is_srg == report.is_srg
        if report.is_srg:
            assert (res.order, res.degree, res.lam, res.mu) == report.parameters
    # (2,7) is graph-build's largest benchmark instance, srg_parameters_n2(7)
    assert results[2, 7] == PairwiseSrgResult(2401, 2016, 1687, 1722, True)
    assert results[3, 2] == PairwiseSrgResult(
        512, 168, None, None, False,
        note="common-neighbor counts vary within a class",
    )


def test_column_sums_match_bit_by_bit_counts():
    # 0-130 rows of 1-70 bits: every tail length mod 16, up to 8 whole
    # blocks, with some columns set in every row, so a column's count of
    # c rows sets every plane that bit p of c names, the top one included
    rng = random.Random(1404)
    for count in range(131):
        width = rng.randrange(1, 71)
        full = rng.getrandbits(width)
        density = rng.random()
        rows = [full | sum(1 << j for j in range(width) if rng.random() < density)
                for _ in range(count)]
        planes = _column_sums(iter(rows), count.bit_length())
        assert len(planes) == count.bit_length()
        assert all(plane >> width == 0 for plane in planes)
        for j in range(width):
            column = sum(row >> j & 1 for row in rows)
            assert sum((plane >> j & 1) << p for p, plane in enumerate(planes)) == column


def _pairwise_by_pairs(adj):
    # the reference: one AND and one popcount per unordered vertex pair
    order = len(adj)
    degrees = {bits.bit_count() for bits in adj}
    if len(degrees) != 1:
        return PairwiseSrgResult(order, None, None, None, False, note="not regular")
    degree = degrees.pop()
    every = (1 << order) - 1
    if all(bits == every ^ (1 << i) for i, bits in enumerate(adj)):
        return PairwiseSrgResult(order, degree, order - 2, None, False,
                                 note="complete graph: no non-adjacent pairs")
    lam_vals, mu_vals = set(), set()
    for i in range(order):
        for j in range(i + 1, order):
            c = (adj[i] & adj[j]).bit_count()
            (lam_vals if adj[i] >> j & 1 else mu_vals).add(c)
    if len(lam_vals) != 1 or len(mu_vals) != 1:
        return PairwiseSrgResult(order, degree, None, None, False,
                                 note="common-neighbor counts vary within a class")
    return PairwiseSrgResult(order, degree, lam_vals.pop(), mu_vals.pop(), True)


def _rows(order, edge):
    return [sum(1 << j for j in range(order) if edge(i, j)) for i in range(order)]


def _circulant(order, steps):
    # steps is closed under negation mod order; 0 in steps puts a loop everywhere
    return _rows(order, lambda i, j: (i - j) % order in steps)


def _random_symmetric(rng, order, density, loops):
    upper = {(i, j) for i in range(order) for j in range(i, order)
             if (i != j or loops) and rng.random() < density}
    return _rows(order, lambda i, j: (min(i, j), max(i, j)) in upper)


def _random_circulant(rng, order, density):
    half = [s for s in range(order // 2 + 1) if s and rng.random() < density]
    steps = set(half) | {-s % order for s in half}
    if rng.random() < 0.3:
        steps.add(0)
    g = _circulant(order, steps)
    # relabel, so no row is a shift of row 0
    perm = list(range(order))
    rng.shuffle(perm)
    return _rows(order, lambda i, j: g[perm[i]] >> perm[j] & 1)


def _paley(p, loops=False):
    squares = {x * x % p for x in range(1, p)}
    return _circulant(p, squares | {0} if loops else squares)


def _cliques(size, count, loops=False):
    return _rows(size * count, lambda i, j: i // size == j // size and (loops or i != j))


def _union(*graphs):
    # disjoint union, each graph's vertices after those of the one before
    rows, offset = [], 0
    for adj in graphs:
        rows += [bits << offset for bits in adj]
        offset += len(adj)
    return rows


_RNG = random.Random(20190)
PAIRWISE_FAMILIES = {
    "random": [_random_symmetric(_RNG, _RNG.randrange(1, 24), _RNG.random(), False)
               for _ in range(60)],
    "random-loops": [_random_symmetric(_RNG, _RNG.randrange(1, 24), _RNG.random(), True)
                     for _ in range(60)],
    "circulant-sparse": [_random_circulant(_RNG, _RNG.randrange(2, 48), 0.25)
                         for _ in range(60)],
    "circulant-dense": [_random_circulant(_RNG, _RNG.randrange(2, 48), 0.8)
                        for _ in range(60)],
    "paley": [_paley(p, loops) for p in (5, 13, 17) for loops in (False, True)],
    "cliques": [_cliques(size, count, loops) for size in range(1, 6)
                for count in range(1, 5) for loops in (False, True)],
    "edgeless": [[0] * order for order in range(8)],
    # 3-regular, and every row reads one lambda: 3 in the looped K3, 2 in
    # the K4; only comparing rows with each other tells it from an SRG
    "lambda-by-row": [_union(_cliques(3, 1, loops=True), _cliques(4, 1))],
}


@pytest.mark.parametrize("family", PAIRWISE_FAMILIES)
def test_pairwise_equals_pair_by_pair_reference(family):
    # each graph, its complement J - A (loops toggled) and its loopless
    # complement; exact equality of the whole result, note included
    for adj in PAIRWISE_FAMILIES[family]:
        every = (1 << len(adj)) - 1
        for rows in (adj, [every ^ bits for bits in adj],
                     [every ^ bits ^ (1 << i) for i, bits in enumerate(adj)]):
            assert CayleyGraph(rows).pairwise_srg_test() == (
                _pairwise_by_pairs(rows))


def test_pairwise_reference_graphs_reach_every_outcome():
    # sparse and dense regular graphs, each with an odd and an even number of
    # rows summed per row, and every verdict the reference can return
    graphs = [adj for family in PAIRWISE_FAMILIES.values() for adj in family]
    regular = [adj for adj in graphs
               if adj and len({bits.bit_count() for bits in adj}) == 1]
    added = {(2 * adj[0].bit_count() > len(adj),
              min(adj[0].bit_count(), len(adj) - adj[0].bit_count()) % 2)
             for adj in regular}
    assert added == {(False, 0), (False, 1), (True, 0), (True, 1)}
    outcomes = {_pairwise_by_pairs(adj)[4:] for adj in graphs}
    assert outcomes == {
        (True, None), (False, "not regular"),
        (False, "complete graph: no non-adjacent pairs"),
        (False, "common-neighbor counts vary within a class"),
    }


def test_pairwise_paley_and_cliques():
    # P(13) is srg(13, 6, 2, 3); with a loop at every vertex each pair of
    # neighbors gains both ends as common neighbors
    assert CayleyGraph(_paley(13)).pairwise_srg_test() == (
        PairwiseSrgResult(13, 6, 2, 3, True))
    assert CayleyGraph(_paley(13, loops=True)).pairwise_srg_test() == (
        PairwiseSrgResult(13, 7, 4, 3, True))
    assert CayleyGraph(_cliques(4, 3)).pairwise_srg_test() == (
        PairwiseSrgResult(12, 3, 2, 0, True))


# --- the pairwise test split across forked children ------------------------------

VARY = PairwiseSrgResult(None, None, None, None, False,
                         note="common-neighbor counts vary within a class")


def _assert_no_child_left():
    # every child the test forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cube(dim):
    return _rows(1 << dim, lambda i, j: (i ^ j).bit_count() == 1)


@pytest.fixture
def split(monkeypatch):
    # split(adj, w) runs the pairwise test on adj with its rows after the
    # head cut into w ranges
    def run(adj, w):
        monkeypatch.setattr(graph, "_worker_count", lambda additions: w)
        return CayleyGraph(adj).pairwise_srg_test()

    return run


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("family", PAIRWISE_FAMILIES)
def test_split_equals_pair_by_pair_reference(split, family, workers):
    # as test_pairwise_equals_pair_by_pair_reference, with the rows cut into
    # ranges run by forked children
    for adj in PAIRWISE_FAMILIES[family]:
        every = (1 << len(adj)) - 1
        for rows in (adj, [every ^ bits for bits in adj],
                     [every ^ bits ^ (1 << i) for i, bits in enumerate(adj)]):
            assert split(rows, workers) == _pairwise_by_pairs(rows)
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_rows_with_one_class_match_the_head(split, workers):
    # two K2 and four vertices with only a loop: row 0 fixes lambda and mu,
    # and a loop's row, which has no neighbor class, is checked on mu alone
    adj = _union(_cliques(2, 2), _cliques(1, 4, loops=True))
    assert split(adj, workers) == _pairwise_by_pairs(adj) == (
        PairwiseSrgResult(8, 1, 0, 0, True))
    # no symmetric graph has a row with only a neighbor class beside one
    # with only a non-neighbor class; these asymmetric rows (0 -> 1, 1 -> 1)
    # do, so the head takes lambda from row 0 and mu from row 1, and with
    # no row left it forks nothing
    assert split([0b10, 0b10], workers) == split(
        [0b10, 0b10], 1) == PairwiseSrgResult(2, 1, 1, 0, True)
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_split_reads_a_vary_from_a_child(split, workers):
    # four K4 then the 3-cube, all 3-regular: the rows of the cliques agree
    # on (2, 0), and only the cube's rows, the last third, vary
    adj = _union(*[_cliques(4, 1)] * 4, _cube(3))
    vary = VARY._replace(order=24, degree=3)
    assert split(adj, 1) == vary
    found = [None, None]
    assert graph._pairwise_rows(adj, 3, 0, range(16), found) and found == [2, 0]
    assert split(adj, workers) == _pairwise_by_pairs(adj) == vary
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_split_stops_at_a_vary_in_its_own_range(split, workers):
    # a K4 first fixes (2, 0), then the cube: the parent's own range varies,
    # and it kills and reaps its children without reading them
    adj = _union(_cliques(4, 1), _cube(3), *[_cliques(4, 1)] * 3)
    assert split(adj, workers) == VARY._replace(order=24, degree=3)
    _assert_no_child_left()


def test_split_raises_when_a_child_fails(monkeypatch, split):
    def fail(rows, parent):
        raise OSError("worker failed")
        yield

    monkeypatch.setattr(graph, "_while_parent_lives", fail)
    with pytest.raises(RuntimeError, match=r"pairwise worker \d+ failed \(exit code 1\)"):
        split(_paley(13), 2)
    _assert_no_child_left()


def test_split_raises_memory_error_when_a_child_runs_out(monkeypatch, split):
    # only a child walks _while_parent_lives, so the parent's own range runs
    # and the child's MemoryError comes back as its own exit status
    def out_of_memory(rows, parent):
        raise MemoryError
        yield

    monkeypatch.setattr(graph, "_while_parent_lives", out_of_memory)
    with pytest.raises(MemoryError, match=r"^pairwise worker \d+ ran out of memory$"):
        split(_paley(13), 2)
    _assert_no_child_left()


def test_split_keeps_a_range_whose_fork_fails(monkeypatch, split):
    # with no process to spare, every range runs in process
    def fail():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fail)
    for adj in (_paley(13), _union(*[_cliques(4, 1)] * 4, _cube(3))):
        assert split(adj, 3) == _pairwise_by_pairs(adj)
    _assert_no_child_left()


@pytest.mark.parametrize("workers, forked", [
    (2, [range(6, 8)]),
    (3, [range(6, 7), range(7, 8)]),
])
def test_split_fixes_lambda_and_mu_before_it_forks(monkeypatch, split, workers, forked):
    # four looped vertices, then two K2: a loop's row has no neighbor class,
    # so the head reads rows 0-4 before row 4 fixes lambda, and rows 5-7 are
    # shared out with both counts known
    adj = _union(_cliques(1, 4, loops=True), _cliques(2, 2))
    seen = []
    fork_rows = graph._fork_rows

    def record(adj, degree, flip, rows, found):
        seen.append((rows, list(found)))
        return fork_rows(adj, degree, flip, rows, found)

    monkeypatch.setattr(graph, "_fork_rows", record)
    assert split(adj, workers) == _pairwise_by_pairs(adj) == (
        PairwiseSrgResult(8, 1, 0, 0, True))
    assert seen == [(rows, [0, 0]) for rows in forked]
    _assert_no_child_left()


def test_split_raises_when_a_child_is_killed(monkeypatch, split):
    def kill(rows, parent):
        os.kill(os.getpid(), signal.SIGKILL)
        yield

    monkeypatch.setattr(graph, "_while_parent_lives", kill)
    with pytest.raises(RuntimeError, match=r"pairwise worker \d+ failed \(exit code -9\)"):
        split(_paley(13), 2)
    _assert_no_child_left()


def test_split_forks_nothing_once_the_head_has_settled(monkeypatch, split):
    # (3,2)'s row 0 already varies, and each row of the asymmetric pair
    # (0 -> 1, 1 -> 1) fixes one count, so the head uses up every row.  An
    # AssertionError is no OSError: no fork can fall back to running in
    # process unseen
    def fork():
        raise AssertionError("forked")

    adj = explicit_graph_build(3, F2).adjacency
    monkeypatch.setattr(os, "fork", fork)
    assert split(adj, 2) == VARY._replace(order=512, degree=168)
    assert split([0b10, 0b10], 2) == PairwiseSrgResult(2, 1, 1, 0, True)
    _assert_no_child_left()


def test_a_child_stops_once_its_parent_has_gone():
    assert list(graph._while_parent_lives(range(3), os.getppid())) == [0, 1, 2]
    rows = graph._while_parent_lives(range(3), os.getpid())
    with pytest.raises(ProcessLookupError):
        next(rows)


def test_worker_count_follows_cpus_and_work(monkeypatch):
    per = graph.ROW_ADDITIONS_PER_WORKER
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [graph._worker_count(k * per) for k in (0, 1, 2, 3, 100)] == [1, 1, 2, 3, 3]
    # graph-build keeps (2,2), (2,3), (2,4), (2,5) and (3,2) in process and
    # splits (2,7); two ranges made (2,4) slower and (2,5) no faster
    assert graph._worker_count(2 ** 4 * gl_order(2, 2)) == 1
    assert graph._worker_count(3 ** 4 * (3 ** 4 - gl_order(2, 3))) == 1
    assert graph._worker_count(4 ** 4 * (4 ** 4 - gl_order(2, 4))) == 1
    assert graph._worker_count(5 ** 4 * (5 ** 4 - gl_order(2, 5))) == 1
    assert graph._worker_count(2 ** 9 * gl_order(3, 2)) == 1
    assert graph._worker_count(7 ** 4 * (7 ** 4 - gl_order(2, 7))) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert graph._worker_count(100 * per) == 1
