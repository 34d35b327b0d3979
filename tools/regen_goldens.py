"""Regenerate the golden pipeline outputs under tests/goldens/.

Runs extract -> evaluate -> graph -> train -> predict on the bundled
fixture corpus with the keyword-mock backend and seed 42, from a
scratch directory using relative paths so no absolute path leaks into
the outputs, then records the stdout of the pinned demos.  The results
are deterministic; the end-to-end test and the demo test assert byte
equality against these files.

The commands, the output names and the runner are imported from those
tests (tests/test_acceptance.py, tests/test_demos.py), so the goldens
are always written by the code they check.  Its CLI subprocesses import the same dstgraph
as this script, so a relative PYTHONPATH still works from the scratch
directory.

Usage: PYTHONPATH=src python3 tools/regen_goldens.py
"""

import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDENS = REPO / "tests" / "goldens"

# the tests and the conftest they import are top-level modules of tests/
sys.path.insert(0, str(REPO / "tests"))
from test_acceptance import OUTPUTS, run_pipeline
from test_demos import PINNED, demo_stdout


def main() -> int:
    GOLDENS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        run_pipeline(workdir)
        for name in OUTPUTS:
            shutil.copy(workdir / name, GOLDENS / name)
        for demo, name in PINNED.items():
            (GOLDENS / name).write_bytes(demo_stdout(demo, workdir))
    print(f"regenerated {len(OUTPUTS) + len(PINNED)} goldens in {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
