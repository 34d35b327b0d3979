"""Regenerate the golden pipeline outputs under tests/goldens/.

Runs extract -> evaluate -> graph -> train -> predict on the bundled
fixture corpus with the keyword-mock backend and seed 42, from a
scratch directory using relative paths so no absolute path leaks into
the outputs.  The results are deterministic; the end-to-end test
asserts byte equality against these files.

The commands, the output names and the runner are imported from that
test (tests/test_acceptance.py), so the goldens are always written by
the pipeline it checks.  Its CLI subprocesses import the same dstgraph
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

# the acceptance gate and the conftest it imports are top-level modules of tests/
sys.path.insert(0, str(REPO / "tests"))
from test_acceptance import OUTPUTS, run_pipeline


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
