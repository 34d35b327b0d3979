"""Regenerate the golden pipeline outputs under tests/goldens/.

Runs extract -> evaluate -> graph -> train -> predict on the bundled
fixture corpus with the keyword-mock backend and seed 42, from a
scratch directory using relative paths so no absolute path leaks into
the outputs.  The results are deterministic; the end-to-end test
asserts byte equality against these files.

The CLI subprocesses import the same dstgraph as this script: their
PYTHONPATH leads with that package's absolute parent directory, so a
relative PYTHONPATH still works from the scratch directory.

Usage: PYTHONPATH=src python3 tools/regen_goldens.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import dstgraph

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "src" / "dstgraph" / "fixtures"
GOLDENS = REPO / "tests" / "goldens"

OUTPUTS = [
    "predictions.jsonl",
    "report.json",
    "graph.nodes.jsonl",
    "graph.edges.txt",
    "graph.manifest.json",
    "checkpoint.json",
    "train_metrics.json",
    "candidates.jsonl",
]

PIPELINE = [
    ["extract", "--corpus", "corpus.jsonl", "--backend", "rulemock",
     "--keywords", "keywords.json", "--out", "predictions.jsonl"],
    ["evaluate", "--predictions", "predictions.jsonl",
     "--corpus", "corpus.jsonl", "--out", "report.json"],
    ["graph", "--predictions", "predictions.jsonl", "--out-prefix", "graph"],
    ["train", "--graph-prefix", "graph", "--checkpoint", "checkpoint.json",
     "--metrics-out", "train_metrics.json", "--seed", "42"],
    ["predict", "--graph-prefix", "graph", "--checkpoint", "checkpoint.json",
     "--predictions", "predictions.jsonl", "--top-k", "5",
     "--out", "candidates.jsonl"],
]


def child_env() -> dict:
    package_root = str(Path(dstgraph.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    paths = [package_root, inherited] if inherited else [package_root]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def run_pipeline(workdir: Path) -> None:
    for name in ("corpus.jsonl", "keywords.json"):
        shutil.copy(FIXTURES / name, workdir / name)
    env = child_env()
    for args in PIPELINE:
        proc = subprocess.run(
            [sys.executable, "-m", "dstgraph.cli", *args],
            cwd=workdir,
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{args[0]} failed with exit code {proc.returncode}")


def main() -> int:
    GOLDENS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        run_pipeline(workdir)
        for name in OUTPUTS:
            shutil.copy(workdir / name, GOLDENS / name)
    print(f"regenerated {len(OUTPUTS)} goldens in {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
