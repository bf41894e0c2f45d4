"""Command-line front end: census, verification, and SRG decisions.

Exit codes: 0 success (an SRG verdict of "no" is still success), 1 a
verification check failed, 2 usage error, 3 budget exceeded (an enumeration
too large, or closed-form counts too long to print), 141 stdout was closed
before all output was written (128 + SIGPIPE, as a shell reports for
`yes | head`; nothing is printed).
JSON output is deterministic: identical flags (including --seed) produce
byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from itertools import product

from .census import (
    CensusRecord,
    _charge_oracle_pass,
    _shifted_unit_counts,
    derangements_formula,
    intersection_count_formula,
    intersection_count_oracle,
    rank1_intersection_formula,
    rank2_case_decomposition_oracle,
    rank2_case_formulas,
    rank2_intersection_formula,
)
from .errors import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    _log10,
    _unformable,
    check_budget,
)
from .fields import FieldSpec, factor_prime_power, make_field, poly_text
from .graph import (
    SRG_METHODS,
    common_neighbors_by_rank,
    explicit_graph_build,
    srg_decide,
)
from .matrices import (
    Matrix,
    canonical_rank_matrix,
    index_to_matrix,
    matrix_space_size,
    parse_matrix,
    scan_space,
    singular_shift_criterion,
)

BUDGET_ENV_VAR = "UNICAYLEY_BUDGET"

RANK_REDUCTION_SAMPLES = 50


class UsageError(Exception):
    """Bad flag combination or unparsable value; maps to exit code 2."""


def parse_field(text: str, *, max_order: int) -> FieldSpec:
    """Parse a field designation: '5' or '2^3'; bare orders may be prime powers."""
    t = text.strip()
    try:
        if "^" in t:
            p_text, k_text = t.split("^", 1)
            p, k = int(p_text), int(k_text)
        else:
            q = int(t)
            # before factoring, which runs to sqrt(q)
            check_budget([(1, q, 1)], max_order, f"construction of GF({q})")
            pk = factor_prime_power(q)
            if pk is None:
                raise UsageError(f"field order {q} is not a prime power")
            p, k = pk
    except ValueError:
        raise UsageError(f"cannot parse field designation {text!r}") from None
    try:
        return make_field(p, k, max_order=max_order)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_budget(args) -> int:
    if args.budget is not None:
        if args.budget <= 0:
            raise UsageError("--budget must be positive")
        return args.budget
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"{BUDGET_ENV_VAR}={env!r} is not an integer") from None
        if value <= 0:
            raise UsageError(f"{BUDGET_ENV_VAR} must be positive")
        return value
    return DEFAULT_BUDGET


# Python's own default for sys.get_int_max_str_digits(), used when the
# interpreter's limit is switched off (0).
DEFAULT_MAX_STR_DIGITS = 4300


def _check_printable(n: int, q: int, what: str) -> None:
    """Refuse a closed-form run whose counts could not be printed.

    Every count is below q^{n^2}, the number of n x n matrices, so the run is
    refused when q^{n^2} has more decimal digits than the interpreter converts
    to a string.  This also bounds the work of the recursion.
    """
    limit = sys.get_int_max_str_digits() or DEFAULT_MAX_STR_DIGITS
    bound = 10 ** limit
    # the bit-length bound spares building q^{n^2} for a huge n; below it
    # the exact power is cheap to form and compare
    if _unformable(1, q, n * n, bound) or q ** (n * n) >= bound:
        whole, part = _log10(1, q, n * n)
        raise BudgetExceededError(
            whole + math.floor(part) + 1, limit,
            what=f"{what} at n = {n}, q = {q} (counts up to q^(n^2))",
            unit="decimal digits",
            remedy="raise PYTHONINTMAXSTRDIGITS to print longer counts",
        )


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


# --- census -------------------------------------------------------------------


def _census_records(args, n, field, budget):
    """Build (records, agrees_by_rank, pair_info) for the census command."""
    q = field.q
    method = args.method
    if method != "oracle":
        _check_printable(n, q, "closed-form census")
    pair_info = None
    if args.matrix_a is not None or args.matrix_b is not None:
        if args.matrix_a is None or args.matrix_b is None:
            raise UsageError("pair queries need both --matrix-a and --matrix-b")
        if args.rank is not None:
            raise UsageError("--rank conflicts with a pair query; the rank is derived")
        try:
            a = parse_matrix(args.matrix_a, field)
            b = parse_matrix(args.matrix_b, field)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if a.n != n or b.n != n:
            raise UsageError(f"matrix literals must be {n}x{n}")
        r = (a - b).rank()
        pair_info = {"matrix_a": a.to_literal(), "matrix_b": b.to_literal(), "rank": r}
    elif args.rank is None or args.rank == "all":
        r = None
    else:
        try:
            r = int(args.rank)
        except ValueError:
            msg = f"--rank takes an integer or 'all', got {args.rank!r}"
            raise UsageError(msg) from None
        if not 0 <= r <= n:
            raise UsageError(f"--rank must lie in [0, {n}], got {r}")
    ranks = range(n + 1) if r is None else [r]
    if method != "formula":
        _charge_oracle_pass(n + 1 if r is None else 1, n, field, budget)
        oracle = _shifted_unit_counts(
            [b - a] if pair_info else [canonical_rank_matrix(n, r, field) for r in ranks])

    records: list[CensusRecord] = []
    agrees: dict[int, bool] = {}
    for i, r in enumerate(ranks):
        counts = {}
        if method in ("formula", "both"):
            counts["formula"] = intersection_count_formula(r, n, q)
        if method in ("oracle", "both"):
            counts["oracle"] = oracle[i]
        for m in ("formula", "oracle"):
            if m in counts:
                records.append(CensusRecord(n, q, r, m, counts[m]))
        if method == "both":
            agrees[r] = counts["formula"] == counts["oracle"]
    return records, agrees, pair_info


def _cmd_census(args, field, budget) -> int:
    n = args.n
    records, agrees, pair_info = _census_records(args, n, field, budget)

    if args.output == "json":
        doc = {
            "command": "census",
            "n": n,
            "q": field.q,
            "records": [rec.to_json_dict() for rec in records],
        }
        if args.method == "both":
            doc["agrees"] = {str(r): agrees[r] for r in sorted(agrees)}
        if pair_info is not None:
            doc["pair"] = pair_info
        _print_json(doc)
    elif args.output == "csv":
        # every field is an int or a fixed word, so none needs quoting
        print("n,q,rank,method,count,agrees")
        for rec in records:
            flag = ""
            if rec.rank in agrees:
                flag = "true" if agrees[rec.rank] else "false"
            print(f"{rec.n},{rec.q},{rec.rank},{rec.method},{rec.count},{flag}")
    else:
        if pair_info is not None:
            print(
                f"pair {pair_info['matrix_a']} vs {pair_info['matrix_b']}: "
                f"rank {pair_info['rank']}"
            )
        for rec in records:
            print(f"n={rec.n} q={rec.q} rank={rec.rank} {rec.method}: {rec.count}")
        for r in sorted(agrees):
            print(f"rank {r}: {'agree' if agrees[r] else 'DISAGREE'}")
    return 0


# --- verify -------------------------------------------------------------------


def _check_rank1_singularity(n, field, seed, budget):
    add = field.add_table
    rows = [t[::-1] for t in product(range(field.q), repeat=n)]  # index order
    witnesses = []

    def visit(tail, dets):
        # det is linear in row 0, so det(A + E_11) = det(A) + det of the
        # first row (1, 0, ..., 0), entry 1 of the block
        c00 = dets[1]
        for row, det in zip(rows, dets):
            lhs = det != 0 and add[det][c00] == 0
            flat = row + tail  # entries from the scan: no need to check them
            if lhs != singular_shift_criterion(Matrix._wrap(n, flat, field)):
                witnesses.append(flat)

    scan_space(n, field, visit)
    total = matrix_space_size(n, field)
    if witnesses:
        first = Matrix._wrap(n, witnesses[0], field).to_literal()
        return False, (
            f"{len(witnesses)} of {total} matrices split the equivalence; "
            f"first witness {first}"
        )
    return True, f"equivalence holds for all {total} matrices"


def _recursion_note(r, n, q, paper):
    """Compare the recursion with the paper's rank-r form: (agrees, note)."""
    rec = intersection_count_formula(r, n, q)
    if rec == paper:
        return True, "; recursion agrees"
    return False, f"; recursion gives {rec}"


def _check_rank1_count(n, field, seed, budget):
    lhs = rank1_intersection_formula(n, field.q)
    rhs = intersection_count_oracle(1, n, field, budget=budget)
    rec_ok, note = _recursion_note(1, n, field.q, lhs)
    return lhs == rhs and rec_ok, f"formula {lhs} vs oracle {rhs}{note}"


def _check_rank2_count(n, field, seed, budget):
    if n < 2:
        raise UsageError("the rank-2 count needs n >= 2")
    lhs = rank2_intersection_formula(n, field.q)
    rhs = intersection_count_oracle(2, n, field, budget=budget)
    rec_ok, note = _recursion_note(2, n, field.q, lhs)
    if lhs != rhs or not rec_ok:
        return False, f"formula {lhs} vs oracle {rhs}{note}"
    if n < 3:
        return True, f"formula {lhs} == oracle {rhs}{note}"
    cases = rank2_case_decomposition_oracle(n, field, budget=budget)
    expected = rank2_case_formulas(n, field.q)
    if cases != expected or sum(cases) != rhs:
        return False, (
            f"case split oracle {cases} vs formulas {expected}, total {rhs}"
        )
    return True, f"formula {lhs} == oracle {rhs}{note}; case split {cases} matches"


def _check_recurrence(n, field, seed, budget):
    for i in range(1, n + 1):
        lhs = derangements_formula(i, field.q)
        rhs = intersection_count_oracle(i, i, field, budget=budget)
        if lhs != rhs:
            return False, f"step {i}: recurrence {lhs} vs oracle {rhs}"
    return True, f"recurrence steps 1..{n} hold"


def _check_rank_reduction(n, field, seed, budget):
    size = matrix_space_size(n, field)
    rng = random.Random(seed)
    pairs = []
    for _ in range(RANK_REDUCTION_SAMPLES):
        i = rng.randrange(size)
        j = rng.randrange(size - 1)
        if j >= i:
            j += 1
        pairs.append((index_to_matrix(i, n, field), index_to_matrix(j, n, field)))
    # common_neighbors_bruteforce for every pair, in one pass over the shifts
    brutes = _shifted_unit_counts([b - a for a, b in pairs])
    for trial, ((a, b), brute) in enumerate(zip(pairs, brutes)):
        reduced = common_neighbors_by_rank(a, b)
        if brute != reduced:
            return False, (
                f"trial {trial}: pair ({a.to_literal()}, {b.to_literal()}) "
                f"brute {brute} vs rank-class {reduced}"
            )
    return True, f"{RANK_REDUCTION_SAMPLES} sampled pairs agree"


# Each check with the number of matrices (or matrix-shift pairs) its scans
# visit at (n, q), as check_budget terms, largest first; verify charges their
# sum before the first check runs.
_CHECKS = {
    "rank1-singularity": (_check_rank1_singularity, lambda n, q: [(1, q, n * n)]),
    "rank1-count": (_check_rank1_count, lambda n, q: [(1, q, n * n)]),
    "rank2-count": (_check_rank2_count,
                    lambda n, q: [(2 if n >= 3 else 1, q, n * n)]),
    "recurrence": (_check_recurrence,
                   lambda n, q: ((1, q, i * i) for i in range(n, 0, -1))),
    "rank-reduction": (_check_rank_reduction,
                       lambda n, q: [(RANK_REDUCTION_SAMPLES, q, n * n)]),
}

CHECK_NAMES = (*_CHECKS, "all")


def _cmd_verify(args, field, budget) -> int:
    n = args.n
    if args.check == "all":
        names = [name for name in _CHECKS if name != "rank2-count" or n >= 2]
    else:
        names = [args.check]
    check_budget(
        (term for name in names for term in _CHECKS[name][1](n, field.q)), budget,
        f"verification scans over M_{n}({field!r})",
    )
    results = []
    for name in names:
        passed, detail = _CHECKS[name][0](n, field, args.seed, budget)
        results.append({"check": name, "pass": passed, "detail": detail})
    all_pass = all(r["pass"] for r in results)

    if args.output == "json":
        _print_json(
            {
                "command": "verify",
                "n": n,
                "q": field.q,
                "seed": args.seed,
                "checks": results,
                "all_pass": all_pass,
            }
        )
    else:
        for r in results:
            print(f"{'PASS' if r['pass'] else 'FAIL'} {r['check']} "
                  f"(n={n}, q={field.q}): {r['detail']}")
    return 0 if all_pass else 1


# --- srg and graph-build --------------------------------------------------------


def _cmd_srg(args, field, budget) -> int:
    if args.method == "formula":
        _check_printable(args.n, field.q, "closed-form srg")
    report = srg_decide(args.n, field, method=args.method, budget=budget)
    if args.output == "json":
        _print_json(report.to_json_dict())
    else:
        print(f"Cay(M_{report.n}(GF({report.q})), invertible differences): "
              f"order {report.order}, degree {report.degree}")
        print(f"lambda (adjacent pairs): {report.lam}")
        for r in sorted(report.mu_by_rank):
            print(f"mu for difference rank {r}: {report.mu_by_rank[r]}")
        print(f"strongly regular: {'yes' if report.is_srg else 'no'}")
        if report.parameters:
            print(f"parameters (v, k, lambda, mu): {report.parameters}")
        if report.witness:
            (r1, r2), (c1, c2) = report.witness.rank_pair, report.witness.counts
            print(f"witness: rank {r1} count {c1} != rank {r2} count {c2}")
        if report.note:
            print(f"note: {report.note}")
    return 0


def _cmd_graph_build(args, field, budget) -> int:
    g = explicit_graph_build(args.n, field, budget=budget)
    result = g.pairwise_srg_test()
    if args.output == "json":
        _print_json(
            {
                "command": "graph-build",
                "n": args.n,
                "q": field.q,
                "order": g.order,
                "edges": g.edge_count(),
                "pairwise_srg": {
                    "is_srg": result.is_srg,
                    "degree": result.degree,
                    "lambda": result.lam,
                    "mu": result.mu,
                    "note": result.note,
                },
            }
        )
    else:
        print(f"built graph on {g.order} vertices with {g.edge_count()} edges")
        print(f"degree: {result.degree}, lambda: {result.lam}, mu: {result.mu}")
        print(f"pairwise strongly regular: {'yes' if result.is_srg else 'no'}")
        if result.note:
            print(f"note: {result.note}")
    return 0


def _cmd_field_info(args, field, budget) -> int:
    if args.output == "json":
        _print_json(
            {
                "command": "field-info",
                "p": field.p,
                "k": field.k,
                "q": field.q,
                "modulus": list(field.modulus) if field.modulus else None,
                "modulus_text": poly_text(field.modulus) if field.modulus else None,
            }
        )
    else:
        if field.k == 1:
            print(f"GF({field.q}): prime field")
        else:
            print(f"GF({field.q}) = GF({field.p}^{field.k}), "
                  f"modulus {poly_text(field.modulus)}")
    return 0


# --- parser and entry point -----------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sub, *, with_n=True, with_seed=False, outputs=("json", "text")):
    sub.add_argument("--field", required=True,
                     help="field designation: a prime power like 4, or p^k like 2^2")
    if with_n:
        sub.add_argument("--n", type=_positive_int, required=True,
                         help="matrix side length, at least 1")
    sub.add_argument("--budget", type=int, default=None,
                     help=f"max enumeration size (default {DEFAULT_BUDGET}, "
                          f"or ${BUDGET_ENV_VAR})")
    if with_seed:
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for sampled checks")
    sub.add_argument("--output", choices=outputs, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unicayley",
        description="Exact census and strong-regularity decisions for the "
                    "unitary Cayley graph of n x n matrices over GF(q).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("field-info", help="show a field's construction")
    _add_common(p, with_n=False)
    p.set_defaults(func=_cmd_field_info)

    p = subs.add_parser("census", help="closed-form and oracle counts by rank")
    _add_common(p, outputs=("json", "csv", "text"))
    p.add_argument("--rank", default=None,
                   help="shift rank in [0, n], or 'all' (the default)")
    p.add_argument("--method", choices=("formula", "oracle", "both"), default="both")
    p.add_argument("--matrix-a", default=None,
                   help="matrix literal like '1,0;0,1' for a pairwise query")
    p.add_argument("--matrix-b", default=None,
                   help="second matrix literal of the pairwise query")
    p.set_defaults(func=_cmd_census)

    p = subs.add_parser("verify", help="run a named verification suite")
    _add_common(p, with_seed=True)
    p.add_argument("--check", choices=CHECK_NAMES, required=True)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("srg", help="decide strong regularity at (n, q)")
    _add_common(p)
    p.add_argument("--method", choices=SRG_METHODS, default="formula",
                   help="'formula' (the default) takes every count from the "
                        "closed forms, which cover every rank, with no scan; "
                        "'oracle' takes them from one full-space pass over "
                        "n + 1 shifts, bounded by --budget")
    p.set_defaults(func=_cmd_srg)

    p = subs.add_parser("graph-build", help="materialize a tiny graph and "
                                            "re-check strong regularity pairwise")
    _add_common(p)
    p.set_defaults(func=_cmd_graph_build)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        budget = _resolve_budget(args)
        field = parse_field(args.field, max_order=budget)
        code = args.func(args, field, budget)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the
        # interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
