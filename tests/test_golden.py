"""The command line's recorded outputs: every argv of tests/golden/cli.jsonl
replays through cli.main to the same stdout, stderr and exit code.

The file comes from tests/golden/regenerate.py.  For an argv that argparse
rejects it records stderr as null, since argparse's wording differs between
Python versions, and only the exit code and the empty stdout are compared.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from unicayley.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.jsonl"
RECORDS = [json.loads(line) for line in GOLDEN.read_text().splitlines()]


@pytest.fixture
def default_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(old)


def test_the_corpus_covers_every_command_and_exit_code():
    commands = {r["argv"][0] for r in RECORDS if r["code"] == 0}
    assert commands == {"census", "field-info", "graph-build", "srg", "verify"}
    assert {r["code"] for r in RECORDS} == {0, 2, 3}
    outputs = {r["argv"][r["argv"].index("--output") + 1]
               for r in RECORDS if "--output" in r["argv"]}
    assert outputs == {"csv", "json", "text"}


def replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_replay_matches_the_recorded_outputs(default_digit_limit):
    mismatched = []
    for record in RECORDS:
        code, out, err = replay(record["argv"])
        if (code, out) != (record["code"], record["stdout"]) or (
                record["stderr"] is not None and err != record["stderr"]):
            mismatched.append(record["argv"])
    assert mismatched == []
