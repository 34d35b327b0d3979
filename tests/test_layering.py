"""The package's modules import their siblings at module level only, and
those imports form no cycle, so the layers stack one way (graph, then
vgae, then linkpred).  The package root imports nothing, so the text
stages, the tracking metrics and the turn pipeline load no numpy; that
pipeline, like the demos and tools, imports no part of the command
line.  The http backend posts through the standard library alone.  Every
file the package writes goes through
``datasets.atomic_writer``, and the only other file it opens is opened
read-only by ``datasets._read_only``."""

import ast
import graphlib
import json
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import dstgraph
from dstgraph import cli
from dstgraph.backends import GenerationParams, RuleMockBackend
from dstgraph.datasets import fixture_corpus_path, fixture_keywords_path

from conftest import child_env, completion_payload

REPO = Path(__file__).resolve().parent.parent
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
import dstgraph.metrics, dstgraph.tracking
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


class RuleMockEndpoint(BaseHTTPRequestHandler):
    """Answers each chat-completions POST with the bundled keyword mock's
    completion of its prompt."""

    protocol_version = "HTTP/1.1"
    timeout = 5
    mock = None

    def log_message(self, format, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        completion = self.mock.complete(body["messages"][-1]["content"], GenerationParams())
        reply = json.dumps(completion_payload(completion)).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)


# the third-party HTTP stack the package once needed, with its dependencies
HTTP_STACK = ("requests", "urllib3", "charset_normalizer", "idna", "certifi")

HTTP_EXTRACT = f"""
import sys

# a site hook may load one of them as the interpreter starts
at_start = set(sys.modules)

class Unimportable:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("requests", "urllib3"):
            raise ImportError(f"{{name}} is not installed here")

sys.meta_path.insert(0, Unimportable())
from dstgraph import cli
code = cli.main(sys.argv[1:])
loaded = [name for name in {HTTP_STACK!r} if name in sys.modules.keys() - at_start]
assert code == 0 and loaded == [], (code, loaded)
"""


def test_http_extract_runs_without_requests(tmp_path, capsys):
    corpus = str(fixture_corpus_path())
    reference, out = tmp_path / "rulemock.jsonl", tmp_path / "http.jsonl"
    assert cli.main(["extract", "--corpus", corpus, "--out", str(reference)]) == 0
    capsys.readouterr()
    handler = type("Handler", (RuleMockEndpoint,), {
        "mock": RuleMockBackend.from_json(fixture_keywords_path())
    })
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        env = {k: v for k, v in child_env().items() if not k.lower().endswith("_proxy")}
        proc = subprocess.run(
            [sys.executable, "-c", HTTP_EXTRACT, "extract", "--corpus", corpus,
             "--backend", "http", "--endpoint", f"http://127.0.0.1:{server.server_port}/v1",
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    assert proc.returncode == 0, proc.stderr
    # the meta line echoes the backend flags; every record is the mock's
    meta, records = out.read_bytes().split(b"\n", 1)
    assert json.loads(meta)["config"]["backend"] == "http"
    assert records == reference.read_bytes().split(b"\n", 1)[1]
    assert records.count(b"\n") == 41


def imports_the_cli(tree) -> bool:
    """Whether ``tree`` imports ``dstgraph.cli``, by its full name or, in
    the package, as a sibling module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["dstgraph" * bool(node.level), node.module]))
            names = [module, *(f"{module}.{a.name}" for a in node.names)]
        else:
            continue
        if any(n == "dstgraph.cli" or n.startswith("dstgraph.cli.") for n in names):
            return True
    return False


def test_library_callers_do_not_import_the_cli():
    # the turn pipeline is library code: tracking, the demos and the tools
    # reach it without the command line's settings
    scripts = {
        str(p.relative_to(REPO)): ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for folder in ("demos", "tools")
        for p in sorted((REPO / folder).glob("*.py"))
    }
    assert scripts, "no demo or tool found"
    trees = {"tracking.py": MODULES["tracking"], **scripts}
    assert [name for name, tree in trees.items() if imports_the_cli(tree)] == []


@pytest.mark.parametrize("source, flagged", [
    ("from dstgraph.cli import RunConfig\n", True),
    ("from dstgraph import cli\n", True),
    ("import dstgraph.cli\n", True),
    ("from . import cli\n", True),
    ("from .cli import make_backend\n", True),
    ("from dstgraph import tracking\n", False),
    ("from dstgraph.client import x\n", False),
])
def test_the_cli_import_check_sees_every_spelling(source, flagged):
    assert imports_the_cli(ast.parse(source)) is flagged


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
