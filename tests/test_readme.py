"""The README's library sketch runs and gives the values its comments state."""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs_as_stated():
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    # each commented line with the value its comment claims, as the README
    # words it; a reworded comment must be checked here too
    stated = {}
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            stated[code.strip()] = comment.strip()
    assert stated == {
        "f9 = make_field(3, 2)": "GF(9), modulus x^2 + 1",
        "a.rank(), a.determinant()": "(2, 1)",
        "gl_order(3, 2)": "168",
        "derangements_formula(3, 2)": "48",
        "report = srg_decide(2, make_field(3))": "parameters (81, 48, 27, 30)",
    }
    names = {}
    exec(block, names)
    assert names["f9"].modulus == (1, 0, 1)
    assert eval("a.rank(), a.determinant()", names) == (2, 1)
    assert eval("gl_order(3, 2)", names) == 168
    assert eval("derangements_formula(3, 2)", names) == 48
    assert names["report"].parameters == (81, 48, 27, 30)
