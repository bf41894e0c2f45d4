"""End-to-end benchmark of the unicayley command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command of a workload runs in a fresh interpreter through the public
entry point, ``python -m unicayley ... --output json``, with the package
imported from this checkout's ``src``.  A run repeats whole rounds of the
workload's commands until S seconds have passed, checks every output against
the independent counts in ``checks.py``, and prints as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s``,
``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` each command runs under
``traced_cli.py`` instead, ``micro.py`` runs once, and the metrics are the
per-layer ones.  Details of each run go to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SPAWNS = 15

# The shared host's speed drifts by tens of percent over tens of seconds, and
# the commands' CPU time drifts with it.  reference.py is a fixed job of the
# same kind that does not use unicayley.  After each command it runs until
# its total time has caught up with REFERENCE_SHARE of the commands' total
# time, so it samples the host's speed evenly over the run.  wall_s is the
# commands' time scaled by REFERENCE_S / (mean reference time): the time at
# the speed the host had when REFERENCE_S was measured.
REFERENCE = BENCH / "reference.py"
REFERENCE_SHARE = 0.25
REFERENCE_S = 0.50


# --- workloads ------------------------------------------------------------------


def _srg(n, q):
    return (["srg", "--n", str(n), "--field", str(q)],
            lambda doc: checks.check_srg(doc, n, q))


def _census(n, field, q, rank=None):
    argv = ["census", "--n", str(n), "--field", field, "--method", "both"]
    if rank is None:
        ranks = range(n + 1)
    else:
        argv += ["--rank", str(rank)]
        ranks = [rank]
    return argv, lambda doc: checks.check_census(doc, n, q, ranks, "both")


def _verify(n, field, q, seed):
    return (["verify", "--check", "all", "--n", str(n), "--field", field,
             "--seed", str(seed)],
            lambda doc: checks.check_verify(doc, n, q, seed))


def _field_info(p, k):
    return (["field-info", "--field", f"{p}^{k}"],
            lambda doc: checks.check_field_info(doc, p, k))


def _graph_build(n, q):
    return (["graph-build", "--n", str(n), "--field", str(q)],
            lambda doc: checks.check_graph_build(doc, n, q))


def srg_ladder(rng):
    return [_srg(n, q) for n, q in
            ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2))]


def crosscheck(rng):
    def seed():
        return rng.randrange(1 << 31)

    return [
        _census(2, "5", 5),
        _census(3, "2", 2),
        _census(3, "3", 3),
        # n >= 4 stays at one rank: rank 3 has no closed form, and
        # --method both exits 2 on it after scanning ranks 0-2.
        _census(4, "2", 2, rank=2),
        _verify(2, "3", 3, seed()),
        _verify(2, "4", 4, seed()),
        _verify(3, "2", 2, seed()),
        # GF(2^8) sits at TABLE_LIMIT and builds full tables; GF(3^6) is
        # above it and runs the raw arithmetic path.
        _verify(1, "2^8", 256, seed()),
        _verify(1, "3^6", 729, seed()),
        _census(1, "3^6", 729),
        _field_info(2, 8),
        _field_info(3, 6),
    ]


def graph_build(rng):
    # 6 is not a prime power, so the q = 2..7 ladder skips it.
    return [_graph_build(n, q) for n, q in
            ((2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (3, 2))]


WORKLOADS = {
    "srg-ladder": srg_ladder,
    "crosscheck": crosscheck,
    "graph-build": graph_build,
}


# --- running commands -------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("UNICAYLEY_BUDGET", None)
    return env


def spawn(argv, env):
    """Run argv to completion; return (wall_s, peak_rss_mb, exit code, stdout, stderr)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    # wait4 reaps the child and returns its own peak resident set (KiB).
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss / 1024, proc.returncode,
            b"".join(chunks[proc.stdout]).decode(),
            b"".join(chunks[proc.stderr]).decode())


def run_reference(env) -> float:
    """Wall time of one reference.py run; stop with an error if it is wrong."""
    wall, _, rc, out, err = spawn([sys.executable, str(REFERENCE)], env)
    if rc != 0 or out.strip() != reference.expected_output():
        sys.exit(f"error: reference.py failed (exit {rc}): {err or out}")
    return wall


def check_checkout(env) -> None:
    """Stop with an error unless unicayley imports from this checkout's src."""
    if not (SRC / "unicayley" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'unicayley'} not found; run from a checkout")
    code = "import unicayley.cli as c; print(c.__file__)"
    _, _, rc, out, err = spawn([sys.executable, "-c", code], env)
    if rc != 0 or Path(out.strip()).resolve().parent.parent != SRC:
        sys.exit(f"error: unicayley does not import from {SRC}: {err or out}")


def measure_setup(env) -> float:
    """Median time to start an interpreter and import unicayley.cli."""
    argv = [sys.executable, "-c", "import unicayley.cli"]
    return statistics.median(spawn(argv, env)[0] for _ in range(SETUP_SPAWNS))


# --- per-layer aggregation ------------------------------------------------------


def layer_values(trace: dict) -> dict:
    """Per-layer times, calls and work of one traced command."""
    spans = trace["spans"]
    out = {"cli.main_s": trace["main_s"], "cli.import_s": trace["import_s"]}
    for name in SPAN_NAMES:
        out[name + "_s"] = 0.0
        out[name + "_calls"] = 0
    for metric in WORK_SPANS.values():
        out[metric] = 0
    for span in spans:
        name = span["name"]
        out[name + "_calls"] += 1
        if name in WORK_SPANS:
            out[WORK_SPANS[name]] += span.get("work", 0)
        # Time a span only when no enclosing span has its name, so a
        # re-entrant call is not counted twice.
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            out[name + "_s"] += span["end"] - span["start"]
    return out


# Span names written by traced_cli.py; each gives <name>_s and <name>_calls.
SPAN_NAMES = (
    "fields.make_field", "matrices.scan", "census.oracle", "census.formula",
    "graph.srg_decide", "graph.bruteforce", "graph.build", "graph.pairwise",
)
WORK_SPANS = {
    "matrices.scan": "matrices.scanned",
    "graph.build": "graph.vertex_unit_pairs",
    "graph.pairwise": "graph.pairs_tested",
}

PER_LAYER_UNITS = {
    "cli.main_s": "s", "cli.import_s": "s",
    "fields.make_field_s": "s", "fields.make_field_calls": "count",
    "fields.mul_ns": "ns", "fields.mul_raw_ns": "ns",
    "matrices.det_ns.n2": "ns", "matrices.det_ns.n3": "ns",
    "matrices.det_ns.generic": "ns",
    "matrices.scan_s": "s", "matrices.scan_calls": "count",
    "matrices.scanned": "count", "matrices.scan_rate": "1/s",
    "census.oracle_s": "s", "census.oracle_calls": "count",
    "census.formula_s": "s", "census.formula_calls": "count",
    "graph.srg_decide_s": "s", "graph.bruteforce_s": "s",
    "graph.build_s": "s", "graph.vertex_unit_pairs": "count",
    "graph.pairwise_s": "s", "graph.pairs_tested": "count",
}


def per_layer_metrics(layers: list[list[dict]], micro: dict) -> dict:
    """layers[c][i]: layer values of command c in round i."""
    values = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in micro:
            values[name] = micro[name]
        elif name == "cli.import_s":
            # The import is paid once per call, like setup_s: report a call's.
            values[name] = statistics.median(v[name] for c in layers for v in c)
        elif name != "matrices.scan_rate":
            # Counts repeat exactly; median_low keeps them whole numbers.
            median = statistics.median_low if unit == "count" else statistics.median
            values[name] = sum(median(v[name] for v in c) for c in layers if c)
    scan_s = values["matrices.scan_s"]
    values["matrices.scan_rate"] = values["matrices.scanned"] / scan_s if scan_s else 0.0
    return {name: {"value": values[name], "unit": PER_LAYER_UNITS[name]}
            for name in PER_LAYER_UNITS}


# --- the run --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = _child_env()
    check_checkout(env)
    commands = WORKLOADS[args.workload](random.Random(args.seed))
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_file = OUT / f"{tag}.spans.json"

    if args.trace:
        _, _, code, out, err = spawn(
            [sys.executable, str(BENCH / "micro.py"), str(args.seed)], env)
        if code != 0:
            sys.exit(f"error: micro.py failed: {err}")
        micro = json.loads(out)
        prefix = [sys.executable, str(BENCH / "traced_cli.py"), str(span_file)]
    else:
        setup_s = measure_setup(env)
        prefix = [sys.executable, "-m", "unicayley"]

    walls = [[] for _ in commands]
    references = []
    reference_due = 0.0
    layers = [[] for _ in commands]
    traces = []
    peak_rss = 0.0
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while True:
        for c, (cmd, check) in enumerate(commands):
            wall, rss, rc, out, err = spawn(prefix + cmd + ["--output", "json"], env)
            if not args.trace:
                reference_due += REFERENCE_SHARE * wall
                while reference_due > 0:
                    references.append(run_reference(env))
                    reference_due -= references[-1]
            attempted += 1
            peak_rss = max(peak_rss, rss)
            walls[c].append(wall)
            if args.trace and span_file.exists():
                trace = json.loads(span_file.read_text())
                span_file.unlink()
                traces.append({"command": cmd, "spans": trace["spans"]})
                layers[c].append(layer_values(trace))
            if rc != 0:
                failed += 1
                print(f"FAILED (exit {rc}): {' '.join(cmd)}\n{err}", file=sys.stderr)
                continue
            try:
                problems = check(json.loads(out))
            except ValueError as exc:
                problems = [f"unparsable output: {exc}"]
            if problems:
                failed += 1
                correct = False
                print(f"WRONG: {' '.join(cmd)}: {problems}", file=sys.stderr)
        if time.perf_counter() - start >= args.seconds:
            break
    raw_wall = sum(statistics.median(w) for w in walls)

    if args.trace:
        metrics = per_layer_metrics(layers, micro)
    else:
        wall_s = raw_wall * REFERENCE_S / statistics.fmean(references)
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed,
                  commands=[cmd for cmd, _ in commands], wall_s_by_round=walls,
                  raw_wall_s=raw_wall, reference_s=references, traces=traces)
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
