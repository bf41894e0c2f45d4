"""Every end-to-end check beyond tier-1, one row each: python tests/frontier.py

A row runs `python -m unicayley` on this checkout's src, one command at a time
since graph-build forks, and compares at most one pair of stdouts.  It fails if
a command exits non-zero or the stdouts differ, and then this script exits 1."""

import os
import shlex
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
ONE_CPU = "one CPU"  # graph-build's pairwise test forks from q = 7 on all CPUs only
ROWS = [  # (command line, prime|extension|computed, seconds on 2 CPUs, comparison or None)
    *((f"graph-build --n 2 --field {q} --output json", c, s, ONE_CPU) for q, c, s in
      ((4, "extension", 0.2), (5, "prime", 0.2), (7, "prime", 0.7), (8, "extension", 1.9))),
    ("census --n 5 --field 2 --method both --budget 201326592", "prime", 0.2, None),
    ("census --n 5 --field 3 --rank 1 --method both --budget 847288609443", "prime", 1.2, None),
    ("census --n 5 --field 3 --rank 2 --method both --budget 847288609443", "prime", 1.2, None),
    ("srg --n 5 --field 2 --method oracle --budget 201326592 --output json", "prime", 0.3,
     "srg --n 5 --field 2 --output json"),
    ("srg --n 6 --field 2 --method oracle --budget 481036337152 --output json", "prime", 15.5,
     "srg --n 6 --field 2 --output json"),
    ("verify --check all --n 4 --field 2", "prime", 0.2, None),
    ("verify --check all --n 3 --field 3 --seed 5", "prime", 0.1, None),
    ("verify --check all --n 3 --field 4", "extension", 0.3, None),
    ("verify --check rank1-singularity --n 3 --field 5", "prime", 1.0, None),
    ("verify --check rank2-count --n 5 --field 2", "prime", 0.1, None),
    ("verify --check rank2-count --n 5 --field 3 --budget 1694577218886", "prime", 1.3, None),
    ("census --n 2 --field 257 --method both --budget 13087411203", "computed", 0.7, None),
    ("census --n 4 --field 4 --method both --budget 21474836480", "extension", 2.9, None),
    ("census --n 3 --field 11 --method both --budget 9431790764", "prime", 1.0, None),
    ("census --n 3 --field 16 --method both --budget 274877906944", "extension", 11.6, None),
]


def _run(command, one_cpu):
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if one_cpu else None
    return subprocess.run([sys.executable, "-m", "unicayley", *shlex.split(command)],
                          env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=pin,
                          capture_output=True, text=True)


def check(command, comparison=None):
    """Run one row: None if it passes, else why it fails, with that stderr."""
    second = command if comparison == ONE_CPU else comparison
    runs = [(command, _run(command, False))]
    runs += [(second, _run(second, comparison == ONE_CPU))] if comparison else []
    for line, proc in runs:
        if proc.returncode:
            return f"`{line}` exited {proc.returncode}\n{proc.stderr}"
    return "the stdouts differ" if len({proc.stdout for _, proc in runs}) > 1 else None


if __name__ == "__main__":
    start, failed = time.perf_counter(), 0
    for command, _, _, comparison in ROWS:
        began, why = time.perf_counter(), check(command, comparison)
        failed += why is not None
        vs = f"  vs {comparison}" if comparison else ""
        verdict = "ok" if why is None else f"FAIL: {why}"
        print(f"{time.perf_counter() - began:6.2f} s  {command}{vs}: {verdict}", flush=True)
    print(f"{time.perf_counter() - start:6.2f} s  {failed} of {len(ROWS)} rows failed")
    sys.exit(1 if failed else 0)
