"""The names the benchmark harness calls still exist.

perfbench/micro.py times FieldSpec.mul, the checked Matrix constructor and
Matrix.determinant, and perfbench/traced_cli.py wraps the pairwise SRG test
as the span graph.pairwise.  Both scripts run here as the benchmark runs
them, so deleting a name they call fails this test rather than the
benchmark run.
"""

import json
from pathlib import Path

from helpers import run_python

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_micro_benchmarks_run():
    code, out, err = run_python(str(PERFBENCH / "micro.py"), "1")
    assert (code, err) == (0, "")
    assert sorted(json.loads(out)) == [
        "fields.mul_ns", "fields.mul_raw_ns", "matrices.det_ns.generic",
        "matrices.det_ns.n2", "matrices.det_ns.n3"]


def test_traced_graph_build_records_the_pairwise_test(tmp_path):
    trace = tmp_path / "trace.json"
    code, out, err = run_python(str(PERFBENCH / "traced_cli.py"), str(trace),
                                "graph-build", "--n", "2", "--field", "3")
    assert (code, err) == (0, "")
    assert out.startswith("built graph on 81 vertices")
    spans = {span["name"]: span for span in json.loads(trace.read_text())["spans"]}
    assert spans["graph.pairwise"]["work"] == 81 * 80 // 2
