"""Command-line front end: census, verification, and SRG decisions.

Exit codes: 0 success (an SRG verdict of "no" is still success), 1 a
verification check failed (a verify check, a census --method both rank
that disagrees, or an internal mismatch: srg_decide's degree or parameter
check, or a failed pairwise worker), 2 usage error, 3 budget exceeded (an
enumeration too large, or closed-form counts too long to print), 4 out of
memory (also in a forked pairwise worker), 130 interrupted (128 + SIGINT),
141 stdout was closed before all output was written (128 + SIGPIPE, as a
shell reports for `yes | head`; nothing is printed).  No exit prints a traceback.
A result depends only on argv: identical flags (including --seed and
--budget) produce byte-identical output and the same exit code.  The one
input outside argv is the interpreter's own PYTHONINTMAXSTRDIGITS limit,
which decides whether closed-form counts are too long to print (exit 3).

Each handler imports the modules its command runs when it runs, so a call
loads no more of the package than its command uses: field-info only fields,
a closed-form srg or census also census, an oracle or a pair query also
matrices, graph-build matrices and graph, and verify census, matrices and
verify.  It builds the field only after those imports: compiling a module
takes memory that is freed once it is loaded, and a call compiles each
module it imports when no bytecode cache is written.  Field tables built
after that reuse the freed memory; built before it, they sit under it and
raise the call's peak.
Every per-rank count comes from census.rank_counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    _log10,
    _unformable,
    check_budget,
)
from .fields import FieldSpec, factor_prime_power, make_field, poly_text


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


def _check_printable(n: int, q: int, what: str) -> None:
    """Refuse a closed-form run whose counts could not be printed.

    Every count is below q^{n^2}, the number of n x n matrices, so the run is
    refused when q^{n^2} has more decimal digits than the interpreter converts
    to a string, or than the interpreter's default limit when that check is
    switched off (0).  This also bounds the work of the recursion.

    It stays outside errors.check_budget, which states the sum it compares:
    this test is exact, q^{n^2} >= 10^limit, but its refusal states a digit
    count from errors._log10, a different quantity.  Folding it in would
    either restate every digit refusal as items against a budget of
    10^limit - 1 or compare a digit count derived from a float.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
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


def _census_records(args, n, budget):
    """Build (field, records, agrees_by_rank, pair_info) for the census command."""
    method = args.method
    pair = args.matrix_a is not None or args.matrix_b is not None
    # the checks that need only argv come before any import or field build
    if pair:
        if args.matrix_a is None or args.matrix_b is None:
            raise UsageError("pair queries need both --matrix-a and --matrix-b")
        if args.rank is not None:
            raise UsageError("--rank conflicts with a pair query; the rank is derived")
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

    from .census import CensusRecord, rank_counts

    if pair or method != "formula":  # loaded before the field is built
        from .matrices import common_neighbors_bruteforce, parse_matrix
    field = parse_field(args.field, max_order=budget)
    q = field.q
    if method != "oracle":
        _check_printable(n, q, "closed-form census")
    pair_info = None
    if pair:
        # the literals parse after the field: their entries are checked against q
        try:
            a = parse_matrix(args.matrix_a, field)
            b = parse_matrix(args.matrix_b, field)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if a.n != n or b.n != n:
            raise UsageError(f"matrix literals must be {n}x{n}")
        r = (a - b).rank()
        pair_info = {"matrix_a": a.to_literal(), "matrix_b": b.to_literal(), "rank": r}
    counts = {}
    if method != "formula":  # charged before any count is formed
        counts["oracle"] = (
            [common_neighbors_bruteforce(a, b, budget=budget)] if pair_info
            else rank_counts(n, field, r, "oracle", budget=budget))
    if method != "oracle":
        counts["formula"] = rank_counts(n, field, r, "formula")
    ranks = range(n + 1) if r is None else [r]
    records = [CensusRecord(n, q, rank, m, counts[m][i])
               for i, rank in enumerate(ranks)
               for m in ("formula", "oracle") if m in counts]
    agrees = {}
    if method == "both":
        agrees = {rank: f == o for rank, f, o
                  in zip(ranks, counts["formula"], counts["oracle"])}
    return field, records, agrees, pair_info


def _cmd_census(args, budget) -> int:
    n = args.n
    field, records, agrees, pair_info = _census_records(args, n, budget)

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
    return 0 if all(agrees.values()) else 1


# --- verify -------------------------------------------------------------------

# The names of verify.CHECKS, in their order, and "all".  The parser is built
# on every call, and naming them here spares it loading the suite;
# test_parser_choices_are_the_library_names pins the two together.
CHECK_NAMES = ("rank1-singularity", "rank1-count", "rank2-count", "recurrence",
               "rank-reduction", "all")


def _cmd_verify(args, budget) -> int:
    n = args.n
    # the check that needs only argv comes before any import or field build
    if n < 2 and args.check == "rank2-count":
        raise UsageError("the rank-2 count needs n >= 2")

    from .verify import CHECKS

    field = parse_field(args.field, max_order=budget)
    if args.check == "all":
        names = [name for name in CHECKS if name != "rank2-count" or n >= 2]
    else:
        names = [args.check]
    check_budget(
        (term for name in names for term in CHECKS[name][1](n, field.q)), budget,
        f"verification scans over M_{n}({field!r})",
    )
    results = []
    for name in names:
        passed, detail = CHECKS[name][0](n, field, args.seed, budget)
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


# census.SRG_METHODS, named here for the same reason as CHECK_NAMES.
SRG_METHODS = ("formula", "oracle")


def _cmd_srg(args, budget) -> int:
    from .census import srg_decide

    if args.method == "oracle":
        from . import matrices  # the oracle's module, loaded before the field
    field = parse_field(args.field, max_order=budget)
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


def _cmd_graph_build(args, budget) -> int:
    from .graph import explicit_graph_build

    field = parse_field(args.field, max_order=budget)
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


def _cmd_field_info(args, budget) -> int:
    field = parse_field(args.field, max_order=budget)
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
    sub.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                     help=f"max enumeration size (default {DEFAULT_BUDGET})")
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
                        "'oracle' counts them by enumeration, one "
                        "column-span transfer over n + 1 shifts, bounded "
                        "by --budget")
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
        code = args.func(args, args.budget)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # an internal mismatch, a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the
        # interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
