"""The package's modules import their siblings at module level only, and
those imports form no cycle, so the layers stack one way (graph, then
vgae, then linkpred).  The package root imports nothing, so the text
stages load no numpy.  Every file the package writes goes through
``datasets.atomic_writer``, and the only other file it opens is opened
read-only by ``datasets._read_only``."""

import ast
import graphlib
import subprocess
import sys
from pathlib import Path

import pytest

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


def function_nodes(tree, name: str) -> set[int]:
    """The ids of every AST node inside the function ``name`` of ``tree``."""
    fn = next(
        fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == name
    )
    return {id(node) for node in ast.walk(fn)}


def opens_for_reading(call: ast.Call) -> bool:
    """An ``open(path, mode)`` call whose mode is a literal that only reads."""
    modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return len(modes) == 1 and (
        isinstance(modes[0], ast.Constant)
        and isinstance(modes[0].value, str)
        and set(modes[0].value) <= set("rbt")
    )


def file_writes(modules: dict) -> list[str]:
    """Every call of ``open``, ``write_text`` or ``write_bytes`` outside
    ``datasets.atomic_writer``, except a read-only ``open`` in
    ``datasets._read_only``."""
    inside_writer = function_nodes(modules["datasets"], "atomic_writer")
    inside_reader = function_nodes(modules["datasets"], "_read_only")
    found = []
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in inside_writer:
                continue
            func = node.func
            callee = getattr(func, "id", None) or getattr(func, "attr", None)
            if callee == "open" and id(node) in inside_reader and opens_for_reading(node):
                continue
            if callee in ("open", "write_text", "write_bytes"):
                found.append(f"{name}.py:{node.lineno} {callee}()")
    return found


def test_files_are_opened_only_in_atomic_writer():
    # any other open() could leave a truncated file behind an aborted run,
    # and so could Path.write_text or Path.write_bytes; the one other open
    # is datasets._read_only's, which only reads (extract's spool is an
    # anonymous temp file, which no run can leave behind)
    assert file_writes(MODULES) == []


@pytest.mark.parametrize("source, flagged", [
    ('def _read_only(p):\n    return open(p, "rb")\n', []),
    ('def _read_only(p):\n    return open(p, mode="r")\n', []),
    ('def _read_only(p):\n    return open(p, "wb")\n', ["datasets.py:2 open()"]),
    ('def _read_only(p):\n    return open(p, "r+b")\n', ["datasets.py:2 open()"]),
    ('def _read_only(p, m):\n    return open(p, m)\n', ["datasets.py:2 open()"]),
    ('def _read_only(p):\n    return open(p)\n', ["datasets.py:2 open()"]),
    ('def read(p):\n    return open(p, "rb")\n', ["datasets.py:2 open()"]),
    ('def _read_only(p):\n    p.write_text("")\n', ["datasets.py:2 write_text()"]),
])
def test_the_file_write_check_allows_only_a_read_only_open(source, flagged):
    datasets = ast.parse(source + "def atomic_writer(p):\n    pass\n")
    if "_read_only" not in source:
        datasets.body.append(ast.parse("def _read_only(p):\n    pass\n").body[0])
    assert file_writes({"datasets": datasets}) == flagged
