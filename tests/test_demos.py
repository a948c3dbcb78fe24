"""The demo scripts and the README's library example run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_zero(script):
    done = _run([str(ROOT / "demos" / script)])
    assert done.returncode == 0, done.stderr


def test_readme_library_example_runs():
    # The README's python block, so that the documented API cannot drift.
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    done = _run(["-c", blocks[0]])
    assert done.returncode == 0, done.stderr
