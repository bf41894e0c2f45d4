"""Regenerate tests/golden/cli.jsonl, the command line's recorded outputs.

Usage: PYTHONPATH=src python tests/golden/regenerate.py

Runs every argv of corpus() through unicayley.cli.main in this process, with
stdout and stderr captured and the interpreter's default int_max_str_digits,
and writes one JSON line per argv: argv, stdout, stderr and exit code.
argparse words its errors differently from one Python version to the next,
so for an argv the parser itself rejects only the exit code and the empty
stdout are recorded (stderr is null).  test_golden.py replays the file.
Regenerating it changes outputs on purpose: list every changed argv, with
the reason, beside the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from unicayley import cli

GOLDEN = Path(__file__).resolve().parent / "cli.jsonl"

# 1 followed by 200 zeros: a side whose q^(n^2) no computer can form
HUGE_N = "1" + "0" * 200


def _each_output(argv, outputs=("json", "text")):
    return [[*argv, "--output", out] for out in outputs]


def corpus() -> list[list[str]]:
    argvs = []
    # the benchmark's commands: srg ladder, crosscheck, graph-build
    for n, q in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2)):
        argvs += _each_output(["srg", "--n", str(n), "--field", str(q)])
    for n, field, rank in (("2", "5", None), ("3", "2", None), ("3", "3", None),
                           ("4", "2", "2"), ("1", "3^6", None)):
        argv = ["census", "--n", n, "--field", field, "--method", "both"]
        argv += ["--rank", rank] if rank else []
        argvs += _each_output(argv, ("json", "text", "csv"))
    for n, field in (("2", "3"), ("2", "4"), ("3", "2"), ("1", "2^8"), ("1", "3^6")):
        for seed in ("0", "12345"):
            argvs += _each_output(["verify", "--check", "all", "--n", n,
                                   "--field", field, "--seed", seed])
    for field in ("2^8", "3^6", "5", "9"):
        argvs += _each_output(["field-info", "--field", field])
    for n, q in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2)):
        argvs += _each_output(["graph-build", "--n", str(n), "--field", str(q)])
    # the CI workflow's short commands
    argvs += _each_output(["verify", "--check", "all", "--n", "3", "--field", "3",
                           "--seed", "5"])
    argvs.append(["census", "--n", "2", "--field", "2", "--rank", "9"])
    # other methods, ranks and checks
    for n, q in ((2, 3), (3, 2), (1, 4)):
        argvs += _each_output(["srg", "--n", str(n), "--field", str(q),
                               "--method", "oracle"])
    argvs += _each_output(["census", "--n", "3", "--field", "4", "--method",
                           "formula"], ("json", "text", "csv"))
    for method in ("formula", "oracle"):
        argvs += _each_output(["census", "--n", "2", "--field", "3", "--rank",
                               "1", "--method", method], ("json", "text", "csv"))
    argvs.append(["census", "--n", "2", "--field", "2", "--rank", "all"])
    for check in cli.CHECK_NAMES[:-1]:
        argvs += _each_output(["verify", "--check", check, "--n", "2",
                               "--field", "3", "--seed", "7"])
    argvs.append(["verify", "--check", "all", "--n", "1", "--field", "2"])
    argvs.append(["srg", "--n", "30", "--field", "7"])
    # pair queries
    for a, b in (("1,0;0,1", "0,0;0,0"), ("1,2;0,1", "1,0;0,1"),
                 ("2,2;1,1", "0,1;2,0")):
        argvs += _each_output(["census", "--n", "2", "--field", "3",
                               "--matrix-a", a, "--matrix-b", b],
                              ("json", "text", "csv"))
    argvs.append(["census", "--n", "2", "--field", "2", "--matrix-a", "1,1;0,1",
                  "--matrix-b", "0,1;1,0", "--method", "oracle"])
    argvs += _each_output(["census", "--n", "1", "--field", "257", "--matrix-a",
                           "200", "--matrix-b", "7"], ("json", "text", "csv"))
    argvs += _each_output(["census", "--n", "2", "--field", "257", "--matrix-a",
                           "256,1;3,200", "--matrix-b", "0,0;0,0", "--method",
                           "formula"])
    argvs.append(["census", "--n", "2", "--field", "257", "--matrix-a",
                  "256,1;3,200", "--matrix-b", "0,0;0,0"])
    # 257^4 matrix-shift pairs: the transfer on a field above the table limit
    argvs.append(["census", "--n", "2", "--field", "257", "--matrix-a",
                  "256,1;3,200", "--matrix-b", "0,0;0,0", "--budget", "4362470401"])
    # refusals: counts too long to print, and huge sides or fields
    argvs += [
        ["srg", "--n", "80", "--field", "7"],
        ["census", "--n", "120", "--field", "2", "--method", "both", "--rank", "0"],
        ["census", "--n", "150", "--field", "2", "--method", "oracle"],
        ["verify", "--check", "recurrence", "--n", "250", "--field", "2"],
        ["graph-build", "--n", "250", "--field", "2"],
        ["field-info", "--field", "2^100000000"],
        ["field-info", "--field", "10000000000000061"],
        ["field-info", "--field", "10000000000000061^1"],
        ["field-info", "--field", "100000000"],
        ["census", "--n", "400", "--field", "2", "--method", "oracle"],
        ["srg", "--n", "1500", "--field", "3", "--method", "oracle"],
        ["graph-build", "--n", "3000", "--field", "3"],
        ["verify", "--check", "all", "--n", "10000", "--field", "3"],
        ["verify", "--check", "rank2-count", "--n", "10000", "--field", "3"],
        ["verify", "--check", "rank-reduction", "--n", "10000", "--field", "3"],
        ["srg", "--n", HUGE_N, "--field", "2"],
        ["census", "--n", HUGE_N, "--field", "2", "--method", "formula"],
        ["census", "--n", HUGE_N, "--field", "2", "--method", "oracle"],
        ["srg", "--n", HUGE_N, "--field", "2", "--method", "oracle"],
        ["verify", "--check", "rank1-count", "--n", HUGE_N, "--field", "2"],
        ["graph-build", "--n", HUGE_N, "--field", "2"],
    ]
    # budget refusals at one below the charge, and acceptance at it
    for argv, needed in (
        (["census", "--n", "2", "--field", "3", "--method", "oracle"], 243),
        (["census", "--n", "2", "--field", "3", "--rank", "1"], 81),
        (["census", "--n", "2", "--field", "3", "--matrix-a", "1,0;0,1",
          "--matrix-b", "0,0;0,0"], 81),
        (["srg", "--n", "2", "--field", "3", "--method", "oracle"], 243),
        (["verify", "--check", "rank1-singularity", "--n", "3", "--field", "2"], 512),
        (["verify", "--check", "rank1-count", "--n", "3", "--field", "2"], 512),
        (["verify", "--check", "rank2-count", "--n", "3", "--field", "2"], 1024),
        (["verify", "--check", "recurrence", "--n", "3", "--field", "2"], 530),
        (["verify", "--check", "rank-reduction", "--n", "2", "--field", "3"], 4050),
        (["verify", "--check", "all", "--n", "2", "--field", "2"], 866),
        (["graph-build", "--n", "2", "--field", "3"], 3240),
        (["field-info", "--field", "9"], 9),
    ):
        argvs += [[*argv, "--budget", str(needed - 1)], [*argv, "--budget", str(needed)]]
    argvs += [
        ["srg", "--n", "5", "--field", "2", "--method", "oracle"],
        ["graph-build", "--n", "2", "--field", "16"],
        ["graph-build", "--n", "3", "--field", "3"],
        ["census", "--n", "3", "--field", "7", "--method", "oracle"],
    ]
    # usage errors the commands raise
    argvs += [
        ["census", "--n", "2", "--field", "6"],
        ["census", "--n", "2", "--field", "4^x"],
        ["census", "--n", "2", "--field", "abc"],
        ["census", "--n", "2", "--field", "4^100"],
        ["field-info", "--field", "1"],
        ["field-info", "--field", "2^0"],
        ["census", "--n", "2", "--field", "2", "--matrix-a", "1,0;0,1"],
        ["census", "--n", "2", "--field", "2", "--matrix-b", "1,0;0,1"],
        ["census", "--n", "2", "--field", "2", "--rank", "1", "--matrix-a",
         "1,0;0,1", "--matrix-b", "0,0;0,0"],
        ["census", "--n", "2", "--field", "2", "--rank", "x"],
        ["census", "--n", "2", "--field", "2", "--rank", "3"],
        ["census", "--n", "2", "--field", "2", "--rank", "-1"],
        ["census", "--n", "2", "--field", "2", "--matrix-a", "1,x;0,1",
         "--matrix-b", "0,0;0,0"],
        ["census", "--n", "2", "--field", "2", "--matrix-a", "1,0;0",
         "--matrix-b", "0,0;0,0"],
        ["census", "--n", "2", "--field", "2", "--matrix-a", "3,0;0,1",
         "--matrix-b", "0,0;0,0"],
        ["census", "--n", "3", "--field", "3", "--matrix-a", "1,0;0,1",
         "--matrix-b", "0,0;0,0"],
        ["verify", "--check", "rank2-count", "--n", "1", "--field", "2"],
        ["verify", "--check", "rank2-count", "--n", "1", "--field", "6"],
    ]
    # usage errors argparse raises
    argvs += [
        [],
        ["no-such-command"],
        ["census", "--n", "2"],
        ["census", "--n", "0", "--field", "2"],
        ["srg", "--n", "-1", "--field", "2"],
        ["srg", "--n", "x", "--field", "2"],
        ["field-info", "--field", "2", "--budget", "0"],
        ["census", "--n", "2", "--field", "2", "--budget", "x"],
        ["srg", "--n", "2", "--field", "2", "--output", "csv"],
        ["srg", "--n", "2", "--field", "3", "--threads", "2"],
        ["srg", "--n", "2", "--field", "3", "--method", "both"],
        ["verify", "--n", "2", "--field", "3", "--check", "nope"],
        ["verify", "--n", "2", "--field", "3"],
    ]
    return argvs


def parser_rejects(argv) -> bool:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cli.build_parser().parse_args(argv)
    except SystemExit:
        return True
    return False


def run(argv) -> dict:
    """Run argv through cli.main at the default digit limit; record what it did."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.set_int_max_str_digits(old)
    return {"argv": list(argv), "stdout": out.getvalue(),
            "stderr": None if parser_rejects(argv) else err.getvalue(),
            "code": code}


def main() -> int:
    with GOLDEN.open("w") as fh:
        for argv in corpus():
            fh.write(json.dumps(run(argv), sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
