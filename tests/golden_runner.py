"""Check every digest of ``test_golden.py`` without pytest, on any interpreter:
``python tests/golden_runner.py``. Names each case whose output changed; exits 1 if any did."""

import io
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
keep = lambda *args, **kwargs: lambda function: function  # noqa: E731 - pytest's decorators
pytest = SimpleNamespace(fixture=keep, mark=SimpleNamespace(parametrize=keep))
sys.modules.setdefault("pytest", pytest)  # type: ignore[arg-type]
from test_golden import CASES, GOLDEN, run_case, write_inputs  # noqa: E402


def readouterr() -> SimpleNamespace:
    """``capsys.readouterr``: what was written to stdout and stderr since the last call."""
    out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    return SimpleNamespace(out=out, err=err)


if __name__ == "__main__":
    real, digests, capsys = (sys.stdout, sys.stderr), {}, SimpleNamespace(readouterr=readouterr)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_inputs(Path(tmp))
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        try:
            for case in sorted(CASES):
                digests[case] = run_case(CASES[case], Path(tmp), capsys)
        finally:
            sys.stdout, sys.stderr = real
            os.chdir(HERE)
    changed = [case for case, digest in digests.items() if digest != GOLDEN.get(case)]
    equal = len(CASES) - len(changed)
    print(f"Python {sys.version.split()[0]}: {equal} of {len(CASES)} digests equal")
    for case in changed:
        print(f"changed: {case}, digest now {digests[case]}")
    sys.exit(1 if changed else 0)
