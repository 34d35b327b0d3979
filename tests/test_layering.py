"""The package's modules import their siblings at module level only, and
those imports form no cycle, so the layers stack one way (graph, then
vgae, then linkpred).  The package root imports nothing, so the text
stages load no numpy.  Every file the package writes goes through
``datasets.atomic_writer``."""

import ast
import graphlib
import subprocess
import sys
from pathlib import Path

import dstgraph

from conftest import child_env

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
    imports = {
        name: {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level and node.module
        }
        for name, tree in MODULES.items()
    }
    assert imports["linkpred"] >= {"graph", "vgae"} and "graph" in imports["vgae"]
    # raises CycleError on any cycle, TYPE_CHECKING imports included
    order = list(graphlib.TopologicalSorter(imports).static_order())
    assert order.index("graph") < order.index("vgae") < order.index("linkpred")


def test_package_root_imports_nothing():
    # each name is imported from its defining module; one re-export here
    # would load its module, and numpy with it, in every text stage
    found = [
        f"__init__.py:{node.lineno}"
        for node in ast.walk(MODULES["__init__"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_text_stages_leave_numpy_unimported():
    script = """
import sys
import dstgraph.backends, dstgraph.datasets, dstgraph.dialogue, dstgraph.parsing, dstgraph.prompts
assert "numpy" not in sys.modules, "numpy was imported"
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_files_are_opened_only_in_atomic_writer():
    # any other open() could leave a truncated file behind an aborted run,
    # and so could Path.write_text or Path.write_bytes
    writer = next(
        fn
        for fn in ast.walk(MODULES["datasets"])
        if isinstance(fn, ast.FunctionDef) and fn.name == "atomic_writer"
    )
    inside_writer = {id(node) for node in ast.walk(writer)}
    found = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside_writer:
                continue
            func = node.func
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            if callee in ("open", "write_text", "write_bytes"):
                found.append(f"{name}.py:{node.lineno} {callee}()")
    assert found == []
