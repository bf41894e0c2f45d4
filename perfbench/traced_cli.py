"""Run one unicayley CLI command with timing wrappers around coarse calls.

Usage: python perfbench/traced_cli.py TRACE_OUT CLI_ARG...

Behaves like ``python -m unicayley CLI_ARG...`` (same stdout and exit code)
and writes a JSON trace to TRACE_OUT: the import time, the time inside
``cli.main``, and one span per wrapped call.  Only public, coarse functions
are wrapped (field construction, whole scans, oracles, formulas, graph
builds), never a per-matrix call.  The cli, census and graph modules bind
these names with ``from ... import``, so each is patched where it is looked
up; a name a later version no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_t0 = time.perf_counter()
import unicayley.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from unicayley import census, fields, graph, matrices  # noqa: E402

_spans: list[dict] = []
_stack: list[int] = []


def _wrap(name, fn, work=None):
    """Record a span per call; work(args, kwargs, result) gives a count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(_spans)
        span = {"name": name, "parent": _stack[-1] if _stack else None}
        _spans.append(span)
        _stack.append(index)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            _stack.pop()
        if work is not None:
            span["work"] = work(args, kwargs, result)
        return result

    return wrapper


def _patch(name, attr, modules, work=None):
    """Wrap one function once and bind the wrapper in every module that has it."""
    owners = [m for m in modules if hasattr(m, attr)]
    if owners:
        wrapper = _wrap(name, getattr(owners[0], attr), work)
        for m in owners:
            setattr(m, attr, wrapper)


def _scanned(args, kwargs, result):
    n, field = args[0], args[1]
    return field.q ** (n * n)


def _vertex_unit_pairs(args, kwargs, g):
    return g.order * g.degree(0)


def _pairs_tested(args, kwargs, result):
    order = args[0].order
    return order * (order - 1) // 2 if result.degree is not None else 0


def install() -> None:
    callers = (cli, graph)
    _patch("fields.make_field", "make_field", (cli, fields))
    _patch("matrices.scan", "scan_space", (matrices, census, graph),
           _scanned)
    for attr in ("intersection_count_oracle", "rank2_case_decomposition_oracle"):
        _patch("census.oracle", attr, callers)
    for attr in ("intersection_count_formula", "rank1_intersection_formula",
                 "rank2_intersection_formula", "rank2_case_formulas",
                 "derangements_formula", "gl_order", "srg_parameters_n2"):
        _patch("census.formula", attr, callers)
    _patch("graph.srg_decide", "srg_decide", (cli,))
    _patch("graph.bruteforce", "common_neighbors_bruteforce", (cli,))
    _patch("graph.build", "explicit_graph_build", (cli,), _vertex_unit_pairs)
    _patch("graph.pairwise", "pairwise_srg_test", (graph.CayleyGraph,),
           _pairs_tested)


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    install()
    start = time.perf_counter()
    code = None
    try:
        code = cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        sys.stdout.flush()
        with open(trace_out, "w") as fh:
            json.dump({"import_s": IMPORT_S, "main_s": main_s, "spans": _spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
