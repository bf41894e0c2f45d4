"""tests/frontier.py, the table of checks beyond tier-1: every row parses and
names its field's class, and the per-row check fails what it should."""

import shlex

from frontier import ONE_CPU, ROWS, check
from unicayley.cli import build_parser
from unicayley.fields import TABLE_LIMIT, factor_prime_power


def _field_class(args):
    q = int(args.field)
    if q > TABLE_LIMIT:
        return "computed"
    return "prime" if factor_prime_power(q)[1] == 1 else "extension"


def test_every_row_parses_and_names_its_field_class():
    parser = build_parser()
    for command, field_class, seconds, comparison in ROWS:
        args = parser.parse_args(shlex.split(command))
        assert _field_class(args) == field_class, command
        assert seconds > 0, command
        if comparison not in (None, ONE_CPU):
            parser.parse_args(shlex.split(comparison))
    assert {row[1] for row in ROWS} == {"prime", "extension", "computed"}


def test_a_row_fails_on_a_nonzero_exit():
    why = check("verify --check rank2-count --n 1 --field 2")
    assert why is not None and "exited 2" in why


def test_a_row_fails_when_the_stdouts_differ():
    assert check("srg --n 2 --field 2", "srg --n 2 --field 3") is not None


def test_a_row_passes_the_same_command_on_one_cpu():
    assert check("graph-build --n 2 --field 2 --output json", ONE_CPU) is None
