"""Every name that the benchmark harness (``perfbench/``) and the
maintenance tools (``tools/``) import from the package exists, so
deleting or renaming one fails here, not only when those scripts run.
Imports inside functions count too: ``perfbench/probe.py`` imports the
package only once it knows where the package is."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*REPO.glob("perfbench/*.py"), *REPO.glob("tools/*.py")])


def package_imports(tree) -> list[tuple[int, str, str | None]]:
    """(line, module, name) of each import from the package anywhere in
    ``tree``; name is None for a plain ``import dstgraph...``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level and node.module:
            if node.module.split(".")[0] == "dstgraph":
                found += [(node.lineno, node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, a.name, None)
                for a in node.names
                if a.name.split(".")[0] == "dstgraph"
            ]
    return found


def is_module(name: str) -> bool:
    try:
        return importlib.util.find_spec(name) is not None
    except ModuleNotFoundError:  # a parent is not a package
        return False


def unresolved(tree) -> list[str]:
    """The package imports of ``tree`` that name no module, attribute or
    submodule."""
    missing = []
    for lineno, module, name in package_imports(tree):
        if not is_module(module):
            missing.append(f"{lineno}: no module {module}")
        elif name is not None and not (
            hasattr(importlib.import_module(module), name) or is_module(f"{module}.{name}")
        ):
            missing.append(f"{lineno}: {module} has no {name}")
    return missing


def test_scripts_import_only_names_the_package_has():
    missing = [
        f"{path.relative_to(REPO)}:{problem}"
        for path in SCRIPTS
        for problem in unresolved(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert missing == []


def test_the_walk_sees_the_imports_inside_functions():
    probe = ast.parse((REPO / "perfbench" / "probe.py").read_text(encoding="utf-8"))
    names = {(module, name) for _, module, name in package_imports(probe)}
    assert {("dstgraph.datasets", "load_corpus"),
            ("dstgraph.datasets", "read_predictions")} <= names


@pytest.mark.parametrize("source, flagged", [
    ("def f():\n    from dstgraph.datasets import load_corpus\n", []),
    ("from dstgraph import cli\n", []),
    ("import dstgraph.metrics\n", []),
    ("def f():\n    from dstgraph.datasets import no_such_name\n",
     ["2: dstgraph.datasets has no no_such_name"]),
    ("from dstgraph.no_such_module import x\n", ["1: no module dstgraph.no_such_module"]),
    ("import dstgraph.no_such_module\n", ["1: no module dstgraph.no_such_module"]),
    ("import dstgraph.datasets.x\n", ["1: no module dstgraph.datasets.x"]),
    ("from numpy import no_such_name\n", []),
])
def test_the_check_flags_only_missing_package_names(source, flagged):
    assert unresolved(ast.parse(source)) == flagged
