"""The package's modules import their siblings at module level only, and
those imports form no cycle, so the layers stack one way (graph, then
vgae, then linkpred)."""

import ast
import graphlib
from pathlib import Path

import dstgraph

MODULES = {
    p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
    for p in sorted(Path(dstgraph.__file__).parent.glob("*.py"))
}


def test_no_relative_import_inside_a_function():
    found = [
        f"{name}.py:{node.lineno} in {fn.name}()"
        for name, tree in MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert found == []


def test_sibling_imports_form_no_cycle():
    # the package __init__ imports every module, so it is left out
    imports = {
        name: {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module
        }
        for name, tree in MODULES.items()
        if name != "__init__"
    }
    assert imports["linkpred"] >= {"graph", "vgae"} and "graph" in imports["vgae"]
    # raises CycleError on any cycle, TYPE_CHECKING imports included
    order = list(graphlib.TopologicalSorter(imports).static_order())
    assert order.index("graph") < order.index("vgae") < order.index("linkpred")
