"""CLI integration: every command, every exit code, byte-level determinism."""

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from unicayley import (
    BudgetExceededError,
    census,
    cli,
    common_neighbors_bruteforce,
    enumerate_matrices,
    explicit_graph_build,
    graph,
    identity_matrix,
    intersection_count_oracle,
    make_field,
    matrices,
    rank2_case_decomposition_oracle,
    srg_decide,
    verify,
    zero_matrix,
)
from unicayley.cli import CHECK_NAMES, main
from helpers import popen_module, run_module, run_python

# 1 followed by 200 zeros: a side whose q^(n^2) no computer can form
HUGE_N = "1" + "0" * 200


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info_text(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--field", "2^2")
    assert code == 0
    assert "x^2 + x + 1" in out


def test_field_info_json(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--field", "9", "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["p"], doc["k"], doc["q"]) == (3, 2, 9)
    assert doc["modulus"] == [1, 0, 1]


def test_field_info_prime_json(capsys):
    code, out, _ = run_cli(capsys, "field-info", "--field", "5", "--output", "json")
    assert code == 0
    assert json.loads(out)["modulus"] is None


def test_census_both_agrees(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--n", "2", "--field", "2",
        "--rank", "1", "--method", "both", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agrees"] == {"1": True}
    counts = {rec["method"]: rec["count"] for rec in doc["records"]}
    assert counts == {"formula": "2", "oracle": "2"}


def test_census_rank_all_formula(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--n", "3", "--field", "2",
        "--rank", "all", "--method", "formula", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    by_rank = {rec["rank"]: int(rec["count"]) for rec in doc["records"]}
    assert by_rank == {0: 168, 1: 72, 2: 56, 3: 48}


def test_census_oracle_gf4(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--n", "2", "--field", "4",
        "--rank", "2", "--method", "oracle", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["records"][0]["count"] == "124"


def test_census_csv(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--n", "2", "--field", "3",
        "--rank", "1", "--method", "both", "--output", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,q,rank,method,count,agrees"
    assert lines[1] == "2,3,1,formula,30,true"
    assert lines[2] == "2,3,1,oracle,30,true"


def test_census_pair_query(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--n", "2", "--field", "2",
        "--matrix-a", "1,0;0,1", "--matrix-b", "0,0;0,0",
        "--method", "both", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pair"]["rank"] == 2
    assert doc["agrees"] == {"2": True}
    assert all(rec["count"] == "2" for rec in doc["records"])


def test_census_pair_needs_both_matrices(capsys):
    code, _, err = run_cli(
        capsys, "census", "--n", "2", "--field", "2", "--matrix-a", "1,0;0,1",
    )
    assert code == 2
    assert "matrix-b" in err


def test_census_pair_conflicts_with_rank(capsys):
    code, _, _ = run_cli(
        capsys, "census", "--n", "2", "--field", "2", "--rank", "1",
        "--matrix-a", "1,0;0,1", "--matrix-b", "0,0;0,0",
    )
    assert code == 2


def test_census_bad_rank(capsys):
    code, _, err = run_cli(capsys, "census", "--n", "2", "--field", "2", "--rank", "5")
    assert code == 2
    assert "rank" in err


def test_census_formula_every_rank_n4(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--n", "4", "--field", "2",
        "--method", "formula", "--output", "json",
    )
    assert code == 0
    counts = [rec["count"] for rec in json.loads(out)["records"]]
    assert counts == ["20160", "9408", "7104", "6208", "5824"]


@pytest.mark.parametrize("argv", [
    ["srg", "--n", "80", "--field", "7"],
    ["srg", "--n", "80", "--field", "7", "--output", "json"],
    ["census", "--n", "80", "--field", "7", "--method", "formula", "--rank", "1"],
    ["census", "--n", "80", "--field", "7", "--method", "formula", "--rank", "1",
     "--output", "json"],
    ["census", "--n", "120", "--field", "2", "--method", "both", "--rank", "0"],
])
def test_counts_too_long_to_print_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "decimal digits" in err


def test_largest_printable_counts_are_accepted(capsys):
    code, out, _ = run_cli(capsys, "srg", "--n", "30", "--field", "7", "--output", "json")
    assert code == 0
    assert json.loads(out)["is_srg"] is False
    # 2^(119^2) has 4263 digits, 2^(120^2) (refused above) has 4335
    code, _, _ = run_cli(capsys, "census", "--n", "119", "--field", "2",
                         "--method", "formula", "--rank", "0")
    assert code == 0


def test_digit_limit_follows_the_interpreter(capsys, monkeypatch):
    argv = ["srg", "--n", "80", "--field", "7", "--output", "json"]
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(6000)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["order"] == 7 ** 6400
    finally:
        sys.set_int_max_str_digits(old)
    # a limit of 0 switches the interpreter's check off; 4300 still applies
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 3


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["census", "--field", "2"],
    ["census", "--field", "2", "--method", "oracle"],
    ["verify", "--field", "2", "--check", "all"],
    ["srg", "--field", "2"],
    ["graph-build", "--field", "2"],
])
def test_matrix_side_below_one_is_a_usage_error(capsys, argv, n):
    code, out, err = run_cli(capsys, *argv, "--n", n)
    assert code == 2
    assert out == ""
    assert "--n" in err
    assert "Traceback" not in err


def test_census_bad_matrix_literal(capsys):
    code, _, _ = run_cli(
        capsys, "census", "--n", "2", "--field", "2",
        "--matrix-a", "1,0;0", "--matrix-b", "0,0;0,0",
    )
    assert code == 2


def test_bad_field_designation(capsys):
    code, _, err = run_cli(capsys, "census", "--n", "2", "--field", "6")
    assert code == 2
    assert "prime power" in err
    code, _, _ = run_cli(capsys, "census", "--n", "2", "--field", "4^x")
    assert code == 2
    # 4^100 exceeds the budget, but 4 is within it and fails the primality test
    code, _, err = run_cli(capsys, "census", "--n", "2", "--field", "4^100")
    assert code == 2
    assert "prime" in err


def test_csv_rejected_outside_census(capsys):
    code, _, err = run_cli(capsys, "srg", "--n", "2", "--field", "2", "--output", "csv")
    assert code == 2
    assert "csv" in err


def test_usage_error_from_argparse(capsys):
    assert main(["census", "--n", "2"]) == 2  # missing --field
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_threads_flag_is_gone(capsys):
    code, out, err = run_cli(capsys, "srg", "--n", "2", "--field", "3", "--threads", "2")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --threads 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "check,n,field",
    [
        ("rank1-singularity", "2", "3"),
        ("rank1-count", "3", "2"),
        ("rank2-count", "3", "2"),
        ("recurrence", "3", "3"),
        ("rank-reduction", "2", "3"),
    ],
)
def test_verify_checks_pass(capsys, check, n, field):
    code, out, _ = run_cli(
        capsys, "verify", "--check", check, "--n", n, "--field", field,
        "--seed", "7",
    )
    assert code == 0
    assert "PASS" in out


def test_verify_all(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "all", "--n", "2", "--field", "2",
        "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert {c["check"] for c in doc["checks"]} == {
        "rank1-singularity", "rank1-count", "rank2-count",
        "recurrence", "rank-reduction",
    }


def test_verify_all_skips_rank2_at_n1(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "all", "--n", "1", "--field", "5",
        "--output", "json",
    )
    assert code == 0
    assert "rank2-count" not in {c["check"] for c in json.loads(out)["checks"]}


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force a disagreement to cover the failure path end to end
    monkeypatch.setattr(
        "unicayley.verify.rank1_intersection_formula", lambda n, q: -1
    )
    code, out, _ = run_cli(
        capsys, "verify", "--check", "rank1-count", "--n", "2", "--field", "2",
    )
    assert code == 1
    assert "FAIL" in out
    assert "-1" in out and "2" in out  # both sides of the disagreement


def test_verify_recurrence_checks_against_the_oracle(capsys, monkeypatch):
    # a wrong base case e_0 = 2 keeps every recurrence step consistent with
    # the one before it; only the enumeration oracle tells it apart
    def wrong_base(n, q):
        e = 2
        for i in range(1, n + 1):
            e = e * (q ** i - 1) * q ** (i - 1) + (-1) ** i * q ** (i * (i - 1) // 2)
        return e

    monkeypatch.setattr("unicayley.verify.derangements_formula", wrong_base)
    code, out, _ = run_cli(
        capsys, "verify", "--check", "recurrence", "--n", "2", "--field", "3",
    )
    assert code == 1
    assert "FAIL recurrence (n=2, q=3): step 1: recurrence 3 vs oracle 1" in out


@pytest.mark.parametrize("check", ["rank1-count", "rank2-count"])
def test_verify_checks_the_recursion_against_the_paper(capsys, monkeypatch, check):
    monkeypatch.setattr(
        "unicayley.verify.intersection_count_formula", lambda r, n, q: -7
    )
    code, out, _ = run_cli(
        capsys, "verify", "--check", check, "--n", "3", "--field", "2",
    )
    assert code == 1
    assert "recursion gives -7" in out


def test_srg_json_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "srg", "--n", "2", "--field", "3", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["is_srg"] is True
    assert doc["parameters"] == [81, 48, 27, 30]

    code, out, _ = run_cli(
        capsys, "srg", "--n", "3", "--field", "2", "--output", "json",
    )
    assert code == 0  # a negative verdict is data, not an error
    doc = json.loads(out)
    assert doc["is_srg"] is False
    assert doc["witness"] == {"rank_pair": [1, 2], "counts": [72, 56]}


def test_srg_complete_graph(capsys):
    code, out, _ = run_cli(
        capsys, "srg", "--n", "1", "--field", "5", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["is_srg"] is False
    assert "complete graph" in doc["note"]


def test_graph_build_json(capsys):
    code, out, _ = run_cli(
        capsys, "graph-build", "--n", "2", "--field", "2", "--output", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 16
    assert doc["edges"] == 48
    assert doc["pairwise_srg"]["is_srg"] is True
    assert doc["pairwise_srg"]["lambda"] == 2


def test_budget_exit_code_and_diagnostic(capsys):
    code, _, err = run_cli(
        capsys, "census", "--n", "3", "--field", "3", "--method", "oracle",
        "--rank", "1", "--budget", "100",
    )
    assert code == 3
    assert "19683" in err  # diagnostic names the required budget

    code, _, _ = run_cli(
        capsys, "srg", "--n", "2", "--field", "2", "--method", "oracle",
        "--budget", "10",
    )
    assert code == 3


def test_srg_oracle_budget_counts_all_scans(capsys):
    # 2^25 matrices fit the default budget of 2^26 once, but not six times
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "srg", "--method", "oracle", "--n", "5", "--field", "2")
    assert code == 3
    assert time.perf_counter() - start < 1
    assert str(6 * 2 ** 25) in err


def test_graph_build_budget_counts_vertex_pairs(capsys):
    # 16^4 vertices pass the 2^16 vertex cap; the v(v - 1)/2 vertex pairs
    # charged for the pairwise test, which bound its v * min(d, v - d) row
    # additions, do not fit the default budget
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "graph-build", "--n", "2", "--field", "16")
    assert code == 3
    assert time.perf_counter() - start < 1
    assert out == ""
    assert "2147450880 vertex pairs" in err


# refusals whose count is printed in full; every other one below is too
# large to print, or to form, and shows ~10^d
PRINTABLE = {
    ("field-info", "--field", "10000000000000061"),
    ("field-info", "--field", "10000000000000061^1"),
    ("field-info", "--field", "100000000"),
    # the count is of decimal digits, about 3 * 10^399 of them
    ("srg", "--n", HUGE_N, "--field", "2"),
    ("census", "--n", HUGE_N, "--field", "2", "--method", "formula"),
}


@pytest.mark.parametrize("argv", [
    # counts with more decimal digits than the interpreter converts
    ["census", "--n", "150", "--field", "2", "--method", "oracle"],
    ["verify", "--check", "recurrence", "--n", "250", "--field", "2"],
    ["graph-build", "--n", "250", "--field", "2"],
    ["field-info", "--field", "2^100000000"],
    # orders above the budget, refused before primality tests and factoring
    ["field-info", "--field", "10000000000000061"],
    ["field-info", "--field", "10000000000000061^1"],
    ["field-info", "--field", "100000000"],
    ["field-info", "--field", "2^100000000000"],
    # oracle passes refused before their n + 1 shifts are built
    ["census", "--n", "400", "--field", "2", "--method", "oracle"],
    ["srg", "--n", "400", "--field", "2", "--method", "oracle"],
    # work refused from bit lengths, without forming q^(n^2) or |GL_n(q)|
    ["srg", "--n", "1500", "--field", "3", "--method", "oracle"],
    ["census", "--n", "3000", "--field", "3", "--method", "oracle"],
    ["graph-build", "--n", "3000", "--field", "3"],
    ["census", "--n", "10000", "--field", "3", "--method", "oracle"],
    ["verify", "--check", "rank-reduction", "--n", "10000", "--field", "3"],
    ["verify", "--check", "recurrence", "--n", "1500", "--field", "3"],
    ["graph-build", "--n", "10000", "--field", "3"],
    # a side with 201 digits, on every path that charges or checks digits
    ["srg", "--n", HUGE_N, "--field", "2"],
    ["census", "--n", HUGE_N, "--field", "2", "--method", "formula"],
    ["census", "--n", HUGE_N, "--field", "2", "--method", "oracle"],
    ["srg", "--n", HUGE_N, "--field", "2", "--method", "oracle"],
    ["verify", "--check", "rank1-count", "--n", HUGE_N, "--field", "2"],
    ["verify", "--check", "recurrence", "--n", HUGE_N, "--field", "2"],
    ["graph-build", "--n", HUGE_N, "--field", "2"],
])
def test_huge_refusals_exit_3_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert time.perf_counter() - start < 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert ("~10^" in err) == (tuple(argv) not in PRINTABLE)


def test_unformable_refusal_states_a_lower_bound(capsys):
    # the first term too large to form, 3^(10^8) for rank1-singularity, is
    # stated as a lower bound: all five checks make about 55 * 3^(10^8)
    code, out, err = run_cli(capsys, "verify", "--check", "all", "--n", "10000",
                             "--field", "3")
    assert code == 3
    assert out == ""
    assert "requires at least ~10^47712125 items" in err
    # a sum small enough to form is stated exactly
    code, _, err = run_cli(capsys, "census", "--n", "2", "--field", "3",
                           "--method", "oracle", "--budget", "242")
    assert code == 3
    assert "requires 243 items" in err


@pytest.mark.parametrize(
    "check,n,field,scans",
    [
        ("rank-reduction", 2, 3, 50),   # one pass over 50 shifts
        ("rank2-count", 3, 2, 2),       # the count and the case split
        ("recurrence", 3, 2, 0),        # one oracle at each side 1..n
        ("all", 2, 2, 1 + 1 + 1 + 50),
    ],
)
def test_verify_budget_counts_every_scan(capsys, check, n, field, scans):
    # each scan fits the budget on its own; verify charges all of them
    needed = scans * field ** (n * n)
    if check in ("recurrence", "all"):
        needed += sum(field ** (i * i) for i in range(1, n + 1))
    argv = ["verify", "--check", check, "--n", str(n), "--field", str(field)]
    code, out, err = run_cli(capsys, *argv, "--budget", str(needed - 1))
    assert code == 3
    assert out == ""
    assert f"requires {needed} items" in err
    code, out, _ = run_cli(capsys, *argv, "--budget", str(needed))
    assert code == 0
    assert "FAIL" not in out


PAIR = ["--matrix-a", "1,0;0,1", "--matrix-b", "0,0;0,0"]


@pytest.mark.parametrize("extra,needed", [
    (["--method", "oracle"], 3 * 81),  # ranks 0..2, one pass each on its own
    (["--method", "both"], 3 * 81),
    (PAIR, 81),
])
def test_census_budget_counts_every_shift(capsys, extra, needed):
    # each scan of M_2(GF(3)) fits a budget of 81 on its own; the census
    # charges every shift before its one pass
    argv = ["census", "--n", "2", "--field", "3", *extra]
    code, out, err = run_cli(capsys, *argv, "--budget", str(needed - 1))
    assert code == 3
    assert out == ""
    assert f"requires {needed}" in err
    code, out, _ = run_cli(capsys, *argv, "--budget", str(needed))
    assert code == 0
    assert "oracle: 27" in out


def test_oracle_refusals_count_their_shifts(capsys):
    # every oracle entry point words its charge the same way, singular for
    # one; 80 admits GF(3) but not one pass over its 81 matrices
    F3 = make_field(3)
    a, b = zero_matrix(2, F3), identity_matrix(2, F3)
    for run, shifts in (
        (lambda: intersection_count_oracle(1, 2, F3, budget=80), "1 shift"),
        (lambda: common_neighbors_bruteforce(a, b, budget=80), "1 shift"),
        (lambda: srg_decide(2, F3, method="oracle", budget=80), "3 shifts"),
        (lambda: census.rank_counts(2, F3, None, "oracle", budget=80),
         "3 shifts"),
        (lambda: census.rank_counts(2, F3, 1, "oracle", budget=80), "1 shift"),
    ):
        with pytest.raises(BudgetExceededError) as exc:
            run()
        assert str(exc.value).startswith(
            f"oracle pass over {shifts} in M_2(GF(3)) requires ")
    for extra, shifts in (([], "3 shifts"), (["--rank", "1"], "1 shift"),
                          (PAIR, "1 shift")):
        code, out, err = run_cli(capsys, "census", "--n", "2", "--field", "3",
                                 "--method", "oracle", "--budget", "80", *extra)
        assert code == 3
        assert out == ""
        assert err.startswith(
            f"error: oracle pass over {shifts} in M_2(GF(3)) requires ")


def test_oracle_queries_make_one_pass(capsys, monkeypatch):
    calls = []
    scan = matrices.scan_space

    def counting_scan(*args, **kwargs):
        calls.append(args[:2])
        return scan(*args, **kwargs)

    monkeypatch.setattr(matrices, "scan_space", counting_scan)
    F2 = make_field(2)
    assert srg_decide(3, F2, method="oracle").mu_by_rank == {1: 72, 2: 56}
    assert calls == [(3, F2)]
    for argv in (
        ["census", "--n", "3", "--field", "2", "--method", "oracle"],
        ["census", "--n", "2", "--field", "3", "--matrix-a", "1,0;0,1",
         "--matrix-b", "0,2;0,0", "--method", "oracle"],
        ["verify", "--check", "rank-reduction", "--n", "2", "--field", "3"],
    ):
        calls.clear()
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == 1, argv


def test_no_scan_starts_before_its_charge(capsys, monkeypatch):
    scans = []

    def no_scan(*args, **kwargs):
        scans.append(args[:2])
        raise AssertionError("a scan started before its charge")

    for module in (matrices, graph):
        monkeypatch.setattr(module, "scan_space", no_scan)
    F2 = make_field(2)
    a, b = zero_matrix(3, F2), identity_matrix(3, F2)
    for run in (
        lambda: intersection_count_oracle(1, 3, F2, budget=2),
        lambda: common_neighbors_bruteforce(a, b, budget=2),
        lambda: rank2_case_decomposition_oracle(3, F2, budget=2),
        lambda: enumerate_matrices(3, F2, budget=2),
        lambda: srg_decide(3, F2, method="oracle", budget=2),
        lambda: census.rank_counts(3, F2, None, "oracle", budget=2),
        lambda: explicit_graph_build(3, F2, budget=2),
    ):
        with pytest.raises(BudgetExceededError):
            run()
    for argv in (
        ["census", "--n", "2"],
        ["srg", "--n", "2", "--method", "oracle"],
        ["verify", "--check", "all", "--n", "2"],
        ["graph-build", "--n", "2"],
    ):
        code, out, _ = run_cli(capsys, *argv, "--field", "2", "--budget", "2")
        assert code == 3, argv
        assert out == ""
    assert scans == []


def test_srg_methods_print_the_same_report(capsys):
    outputs = set()
    for method in ("formula", "oracle"):
        for fmt in ("json", "text"):
            code, out, _ = run_cli(
                capsys, "srg", "--n", "3", "--field", "2", "--method", method,
                "--output", fmt,
            )
            assert code == 0
            outputs.add((fmt, out))
    assert len(outputs) == 2


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("UNICAYLEY_BUDGET", "100")
    code, _, _ = run_cli(
        capsys, "census", "--n", "3", "--field", "3", "--method", "oracle",
        "--rank", "1",
    )
    assert code == 3
    # the flag wins over the environment
    code, _, _ = run_cli(
        capsys, "census", "--n", "3", "--field", "3", "--method", "oracle",
        "--rank", "1", "--budget", "100000",
    )
    assert code == 0
    monkeypatch.setenv("UNICAYLEY_BUDGET", "bogus")
    code, _, _ = run_cli(capsys, "census", "--n", "2", "--field", "2")
    assert code == 2


def test_json_outputs_are_byte_identical_across_runs_and_threads(capsys):
    def output_of(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        return out

    census = ["census", "--n", "2", "--field", "3", "--rank", "all",
              "--method", "both", "--output", "json"]
    assert output_of(*census) == output_of(*census)

    srg = ["srg", "--n", "3", "--field", "2", "--output", "json"]
    assert output_of(*srg) == output_of(*srg)

    verify = ["verify", "--check", "rank-reduction", "--n", "2", "--field", "2",
              "--seed", "9", "--output", "json"]
    assert output_of(*verify) == output_of(*verify)


FUZZ_SIDES = ("1", "2", "3", "4", "5", "0", "-1", "-2", "x", HUGE_N)
FUZZ_FIELDS = ("2", "3", "4", "7", "2^2", "2^8", "3^6", "6", "0", "abc")

# Flags each subcommand takes, with valid and invalid values.
FUZZ_OWN_FLAGS = {
    "field-info": (),
    "census": (("--rank", ("0", "1", "2", "all", "7", "r")),
               ("--method", ("formula", "oracle", "both", "m"))),
    "verify": (("--check", CHECK_NAMES),),
    "srg": (("--method", ("formula", "oracle", "m")),),
    "graph-build": (),
}

# At most one of these is appended, valid for some subcommands only.
FUZZ_EXTRA_FLAGS = (
    ["--n", "2"], ["--output", "csv"], ["--rank", "1"], ["--method", "oracle"],
    ["--budget", "0"], ["--threads", "2"],
)


@st.composite
def fuzz_argv(draw):
    """argv from a small grammar of valid and invalid flags and values."""
    command = draw(st.sampled_from(sorted(FUZZ_OWN_FLAGS)))
    argv = [command]
    if command != "field-info":
        argv += ["--n", draw(st.sampled_from(FUZZ_SIDES))]
    argv += ["--field", draw(st.sampled_from(FUZZ_FIELDS))]
    for flag, values in FUZZ_OWN_FLAGS[command]:
        value = draw(st.sampled_from((None,) + tuple(values)))
        if value is not None:
            argv += [flag, value]
    argv += draw(st.sampled_from(([],) * 6 + FUZZ_EXTRA_FLAGS))
    return argv


def test_every_argv_keeps_the_exit_code_contract(monkeypatch):
    monkeypatch.setenv("UNICAYLEY_BUDGET", "4096")

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(fuzz_argv())
    def check(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        assert code in (0, 1, 2, 3), argv

    check()


def test_import_loads_no_dataclasses_inspect_or_csv():
    # every call pays for this import: dataclasses pulls in inspect, ast,
    # dis and tokenize, and only census --output csv needs csv
    code = ("import sys, unicayley.cli; "
            "print(sorted({'csv', 'dataclasses', 'inspect'} & set(sys.modules)))")
    assert run_python("-c", code) == (0, "[]\n", "")


LOADED_BY_MAIN = """
import sys, unicayley.cli
code = unicayley.cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("unicayley")),
      file=sys.stderr)
"""
FRONT_END = ["unicayley", "unicayley.cli", "unicayley.errors", "unicayley.fields"]


@pytest.mark.parametrize("argv, loaded", [
    (["field-info", "--field", "2^8"], FRONT_END),
    (["srg", "--n", "3", "--field", "3"], FRONT_END + ["unicayley.census"]),
    (["census", "--n", "3", "--field", "3", "--method", "formula"],
     FRONT_END + ["unicayley.census"]),
    (["census", "--n", "2", "--field", "3", *PAIR],
     FRONT_END + ["unicayley.census", "unicayley.matrices"]),
    (["graph-build", "--n", "2", "--field", "2"],
     FRONT_END + ["unicayley.graph", "unicayley.matrices"]),
    (["verify", "--check", "rank1-count", "--n", "2", "--field", "2"],
     FRONT_END + ["unicayley.census", "unicayley.matrices", "unicayley.verify"]),
])
def test_a_command_loads_only_the_modules_it_runs(argv, loaded):
    # the closed forms run without the enumeration side (matrices, graph,
    # verify), field-info without the closed forms, the explicit graph
    # without them, and the checks without the explicit graph
    code, _, err = run_python("-c", LOADED_BY_MAIN, *argv)
    assert (code, err.split()) == (0, ["0", *sorted(loaded)])


def test_parser_choices_are_the_library_names():
    # the parser names them itself, so that building it loads neither module
    assert CHECK_NAMES == (*verify.CHECKS, "all")
    assert cli.SRG_METHODS == census.SRG_METHODS


@pytest.mark.parametrize("argv, expected, first_line", [
    (["srg", "--n", "2", "--field", "3", "--output", "json"], 0, "{"),
    (["census", "--n", "2", "--field", "2", "--rank", "1", "--output", "csv"],
     0, "n,q,rank,method,count,agrees"),
    (["srg", "--n", "2", "--field", "3", "--output", "csv"], 2, ""),
    (["graph-build", "--n", "2", "--field", "16"], 3, ""),
])
def test_module_entry_point_matches_main(capsys, monkeypatch, argv, expected,
                                         first_line):
    code, out, err = run_module(*argv)
    assert code == expected
    assert out.split("\n")[0] == first_line
    assert "Traceback" not in err
    monkeypatch.delenv("UNICAYLEY_BUDGET", raising=False)
    assert run_cli(capsys, *argv) == (code, out, err)


def test_closed_stdout_exits_141_without_a_traceback():
    # a reader that stops early, as `| head -c 100` does: the output is far
    # larger than a pipe buffer, so the command is still writing when the
    # pipe closes, and it exits with a shell's SIGPIPE status, printing nothing
    with popen_module("srg", "--n", "119", "--field", "2") as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="lists children through /proc; forks only on 2+ CPUs")
def test_a_killed_graph_build_leaves_no_process():
    # (2,8) splits its pairwise test across the CPUs.  Killed mid-test, its
    # children find their parent gone at their next row and exit, closing
    # the output pipes they inherited, so reading them reaches EOF.
    with popen_module("graph-build", "--n", "2", "--field", "8") as proc:
        listing = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 30
        while not (children := listing.read_text().split()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
        proc.kill()
        proc.communicate(timeout=30)

    def running(pid):
        # neither gone nor a zombie waiting for whichever process adopted it
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    # a child closes its files before it is done exiting
    while any(map(running, children)):
        assert time.monotonic() < deadline
        time.sleep(0.002)


def test_no_stdout_at_all_is_still_success(monkeypatch):
    # started with stdout closed (`>&-`), the interpreter sets sys.stdout to
    # None and print writes nowhere
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["srg", "--n", "2", "--field", "2"]) == 0


def test_no_stdout_at_all_is_still_success_for_csv(monkeypatch):
    # the csv rows are printed like every other output, so they too go
    # nowhere when stdout is closed
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["census", "--n", "2", "--field", "2", "--output", "csv"]) == 0
