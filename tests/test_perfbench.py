"""The benchmark harness still runs against the package.

``perfbench/`` imports and patches package names (``perf``, ``vbs_run``,
``run_comparable``, ``score_ordered``, ``cli.perf``, the ``SubsetScorer`` of
``tradeoff`` and ``shapley``), so a refactor that deletes or renames one fails
here, not only in the benchmark. The self-check drives every report stage on
its 3-solver ``tiny`` workload in a few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("selfcheck: ok\n")
