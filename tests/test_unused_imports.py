"""No module of the package, its tests, tools or demos imports a name it
never uses.  A name counts as used when the module's syntax tree loads it
anywhere (an attribute chain counts by its first name), or when a string
annotation or ``__all__`` names it.  ``from __future__`` imports are
directives, not names, and are left out."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src", "tests", "tools", "demos")
    for path in (REPO / folder).rglob("*.py")
)


def imported_names(tree) -> list[tuple[int, str]]:
    """(line, bound name) of every import anywhere in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            found += [(node.lineno, a.asname or a.name) for a in node.names]
    return found


def string_names(text: str) -> set[str]:
    """The names a string annotation or an ``__all__`` entry loads."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def named_by_strings(tree) -> list:
    """The annotations of ``tree`` and the values assigned to ``__all__``:
    the places where a string names a module-level name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            found.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            found.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found.append(node.value)
    return [n for n in found if n is not None]


def used_names(tree) -> set[str]:
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for place in named_by_strings(tree):
        for node in ast.walk(place):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= string_names(node.value)
    return used


def unused_imports(tree) -> list[str]:
    used = used_names(tree)
    return [f"{line}: {name}" for line, name in imported_names(tree) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        f"{path.relative_to(REPO)}:{problem}"
        for path in MODULES
        for problem in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


def test_the_walk_covers_every_folder():
    folders = {path.relative_to(REPO).parts[0] for path in MODULES}
    assert folders == {"src", "tests", "tools", "demos"}
    assert REPO / "tests" / "test_unused_imports.py" in MODULES


@pytest.mark.parametrize("source, flagged", [
    ("import os\n", ["1: os"]),
    ("import os\nos.getcwd()\n", []),
    ("import os.path\nos.path.join('a')\n", []),
    ("import numpy as np\n", ["1: np"]),
    ("from a import b, c\nb()\n", ["1: c"]),
    ("from a import b as c\nc\n", []),
    ("def f():\n    from a import b\n", ["2: b"]),
    ("from a import b\nb = 1\n", ["1: b"]),
    ("from a import B\nx: 'list[B]' = []\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import b\nx = 'b'\n", ["1: b"]),
    ("from a import B\ndef f(x: 'B') -> 'B | None': pass\n", []),
    ("from __future__ import annotations\n", []),
])
def test_the_check_flags_only_unused_names(source, flagged):
    assert unused_imports(ast.parse(source)) == flagged
