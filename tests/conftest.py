import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def demo_path() -> Path:
    return DATA_DIR / "demo.csv"


@pytest.fixture(scope="session")
def demo_expected() -> dict:
    return json.loads((DATA_DIR / "demo_expected.json").read_text(encoding="utf-8"))


@pytest.fixture
def verbose(monkeypatch, capsys):
    """The ``-v`` lines on, for this test only: call the fixture's value for the stderr lines
    written since the last call."""
    from portview import render

    monkeypatch.setattr(render, "verbose", True)
    return lambda: capsys.readouterr().err.splitlines()
