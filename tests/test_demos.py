"""Every script in demos/ and every Python block of README.md runs to
completion against this checkout's package, so a renamed or deleted public
name cannot break one unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def run_fresh(argv) -> subprocess.CompletedProcess:
    """Run a new interpreter on ``argv`` with this checkout's ``src/`` first
    on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    done = run_fresh([str(demo)])
    assert done.returncode == 0, done.stderr


def test_readme_blocks_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", [pytest.param(block, id=f"python-{i}")
                                   for i, block in enumerate(README_BLOCKS, start=1)])
def test_readme_block_runs(block):
    done = run_fresh(["-c", block])
    assert done.returncode == 0, done.stderr
