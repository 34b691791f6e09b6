"""Every Python file of the project parses under the oldest Python that ``pyproject.toml`` allows."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)  # requires-python = ">=3.10"


def test_every_file_parses_at_the_python_floor():
    files = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
