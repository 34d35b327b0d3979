"""Every demo script, and the README's library quickstart, runs to
completion against the package under test; the demos whose stdout is
pinned print their golden byte for byte."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
GOLDENS = REPO / "tests" / "goldens"

# demo -> the golden under tests/goldens/ holding its stdout, which
# tools/regen_goldens.py writes
PINNED = {
    "01_track_one_dialogue.py": "demo_01.out",
    "02_score_against_gold.py": "demo_02.out",
    "03_predict_next_states.py": "demo_03.out",
    "04_verify_the_model.py": "demo_04.out",
}


def demo_stdout(name: str, cwd: Path) -> bytes:
    """The stdout of the demo ``name``, run to completion in ``cwd``."""
    proc = subprocess.run(
        [sys.executable, str(REPO / "demos" / name)],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    demo_stdout(demo.name, tmp_path)


@pytest.mark.parametrize("demo", sorted(PINNED))
def test_demo_prints_its_pinned_stdout(demo, tmp_path):
    assert demo_stdout(demo, tmp_path) == (GOLDENS / PINNED[demo]).read_bytes()


def test_readme_library_quickstart_runs(tmp_path):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quickstart\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    assert block is not None, "README has no python block under '## Library quickstart'"
    proc = subprocess.run(
        [sys.executable, "-c", block.group(1)],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
