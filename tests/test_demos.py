"""Every demo script, and the README's library quickstart, runs to
completion against the package under test."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
