"""Every function the package defines is reached by a product path, or is
pinned in ``UNREACHED`` with the reason it stays.

The product paths are the ``walklab`` CLI and the README's library tour.
The gate runs them in this process under ``sys.setprofile`` and
``threading.setprofile`` (the mixing sweep runs in pool threads), keys
each called code object by (file, first line, name), and maps that key to
the qualified name of a definition read off the source with ``ast``.  The
unreached definitions must equal ``UNREACHED`` exactly: new dead code
fails the gate, and so does an entry that a product path now reaches,
which must then be deleted.  The list can only shrink.
"""

import ast
import math
import os
import pathlib
import re
import sys
import threading

import numpy as np
import pytest

import walklab
from walklab import chains, spectral
from walklab.cli import main

PACKAGE = pathlib.Path(walklab.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"

CYCLES = ("counts simple cycles in balls, the paper's bounded-cycles "
          "hypothesis; kept for a planned report record of it")
READ_BY_TESTS = "a pass/fail summary that the acceptance tests read"

# qualified name -> why it stays though no product path reaches it.
# Delete an entry when a product path reaches it or its code goes; never
# add one for new code.
UNREACHED = {
    "graphs._ball_edges": CYCLES,
    "graphs.count_simple_cycles": CYCLES,
    "graphs.count_simple_cycles.far": CYCLES,
    "graphs.count_simple_cycles.trace": CYCLES,
    "graphs.count_simple_cycles.one_cycle": CYCLES,
    "graphs.assumption1_scan": CYCLES,
    "graphs.girth": "exported; the LPS girth sets the ball radius r(n) "
                    "of the cycle hypothesis",
    "tree.level_hitting_time": "oracle: tests check the tree-ball "
                               "sphere-hit times against it",
    "checks.Check.failed": READ_BY_TESTS,
    "hitting.HitReport.all_passed": READ_BY_TESTS,
    "hitting.WvsKReport.all_passed": READ_BY_TESTS,
    "walks.EscapeTransferReport.all_passed": READ_BY_TESTS,
    "graphs.Graph.degree": "the one-vertex accessor of the Graph API",
    "graphs.Graph.__eq__": "dunder: graphs compare by value",
    "graphs.Graph.__repr__": "dunder: a graph prints its size",
    "chains.ReversibleChain.__repr__": "dunder: a chain prints its shape",
}


def definitions():
    """``{(file, first line, name): qualified name}`` of every function
    the package defines, nested ones included.  A decorated function's
    code starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                found[(path, first, child.name)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path),
              f"{path.stem}.")
    return found


def tour():
    """The README's python block run as a session: ``(comment, value)``
    of each statement with a comment, in order, the value being that of
    the expression or of the name assigned."""
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    lines = block.splitlines()
    namespace = {}
    shown = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), str(README),
                                 "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"),
                 namespace)
            value = (namespace[node.targets[0].id]
                     if isinstance(node, ast.Assign) else None)
        comment = lines[node.lineno - 1].partition("#")[2].strip()
        if comment:
            shown.append((comment, value))
    return shown


def cli(code, *argv):
    assert main([str(a) for a in argv]) == code, argv


def run_product_paths(out, monkeypatch):
    monkeypatch.delenv("WALKLAB_OUT", raising=False)
    for name, graph in (
            ("petersen", ["petersen"]), ("prism", ["prism"]),
            ("q3", ["hypercube"]), ("c9", ["cycle", "--n", 9]),
            ("k5", ["complete", "--n", 5]),
            ("rr64", ["random-regular", "--n", 64, "--d", 3,
                      "--seed", 8])):
        cli(0, "verify", "--graph", *graph, "--out", out / name)
    cli(0, "spectrum", "--graph", "lps", "--p", 5, "--q", 13,
        "--out", out / "lps")
    cli(0, "gen", "--graph", "high-girth", "--n", 60, "--d", 3,
        "--out", out / "gen")
    cli(0, "verify", "--graph", out / "gen" / "graph.txt",
        "--out", out / "file")
    bad = out / "bad.txt"
    bad.write_text("4 2\n0 1\nnot numbers\n")
    cli(2, "verify", "--graph", bad, "--out", out / "bad")
    cli(0, "inflate", "--graph", "petersen", "--out", out / "inflate")
    cli(0, "summary", out / "petersen" / "report.json",
        out / "file" / "report.json", "--out", out / "summary")
    # enough trials for the regeneration kernel's noise gate
    cli(0, "walk", "--graph", "petersen", "--trials", 100_000,
        "--out", out / "walk")
    with monkeypatch.context() as patch:
        # the iterative spectrum and the sampled mixing starts at n = 80
        patch.setattr(spectral, "DENSE_BUDGET", 50)
        patch.setattr(chains, "EXACT_START_LIMIT", 50)
        cli(0, "verify", "--graph", "random-regular", "--n", 80, "--d", 3,
            "--suite", "spectral", "--suite", "mixing", "--out", out / "rr80")
    with monkeypatch.context() as patch:
        # Petersen's one real block of 10 in LAPACK's two stages
        patch.setattr(spectral, "TWO_STAGE_MIN", 10)
        cli(0, "spectrum", "--graph", "petersen", "--out", out / "two-stage")
    tour()


def test_every_definition_is_reached_or_pinned(tmp_path, monkeypatch):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_product_paths(tmp_path, monkeypatch)
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno,
                code.co_name) for code in called}
    unreached = {name for key, name in definitions().items()
                 if key not in reached}
    pinned = set(UNREACHED)
    assert unreached == pinned, (
        f"reached by no product path and not pinned: "
        f"{sorted(unreached - pinned)}; pinned but reached or gone, "
        f"delete from UNREACHED: {sorted(pinned - unreached)}")


def test_readme_tour_states_its_values():
    stated = {
        "{1, 1/3 x5, -2/3 x4}": lambda s: np.allclose(
            s.eigenvalues, [1] + [1 / 3] * 5 + [-2 / 3] * 4,
            rtol=0, atol=1e-12),
        "'ramanujan'": lambda category: category == "ramanujan",
        "4": lambda tmix: tmix == 4,
        "(0.9, 0.7, 0.3, 0.2555..., 0.1518...)": lambda tv: (
            tv[:3] == pytest.approx((0.9, 0.7, 0.3), rel=0, abs=1e-12)
            and math.floor(tv[3] * 1e4) == 2555
            and math.floor(tv[4] * 1e4) == 1518),
        "uniform 1/6": lambda row: np.allclose(row, [1 / 6] * 6, rtol=0,
                                               atol=1e-12),
        "2448, 14-regular, non-bipartite": lambda n: n == 2448,
        "42 signed paths 0 -> 2 avoiding 0": lambda count: count == 42,
        "0.164...": lambda c0: math.floor(c0 * 1e3) == 164,
    }
    shown = tour()
    assert [comment for comment, _ in shown] == list(stated)
    for comment, value in shown:
        assert stated[comment](value), (comment, value)
