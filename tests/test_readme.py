"""Every ```python block of README.md runs as written, from the repo root.

A change that removes or renames a documented name fails here until the README
follows it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_readme_has_a_python_example():
    assert BLOCKS and "shapley_exact(ds" in BLOCKS[0]


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
