"""The benchmark harness still runs against the package.

``perfbench/`` imports, patches and calls these package names, so a refactor
that deletes or renames one, or changes a call shape, fails here, not only in
the benchmark:

* ``perf``, ``vbs_run``, ``run_comparable``, ``score_ordered`` and
  ``render.frac_str``, imported directly;
* the 15 ``cli`` names that ``spans.CLI_LAYERS`` wraps: ``ingest``,
  ``filter_solvers``, ``borda``, ``perf``, ``build_coverage``, ``min_cover``,
  ``best_subsets``, ``thresholds``, ``shapley_exact``, ``shapley_sampled``,
  ``fmt_sig``, ``fmt_pct``, ``csv_text``, ``align_table`` and ``frac_str``;
* the positional calls ``best_subsets(ds, space, baseline)`` and
  ``borda(ds)``, whose arguments ``spans.layer_metrics`` unpacks;
* the ``SubsetScorer`` of ``tradeoff`` and ``shapley``, subclassed around
  ``__init__`` and ``evaluate_mask``;
* ``cli.ReportConfig`` and ``cli.run_pipeline``, which build and run the
  traced pass;
* ``convert.convert_table``, ``runstore.write_canonical`` and the ``runstore``
  data model (``Dataset``, ``InstanceMeta``, ``ProblemKind``, ``RunRecord``,
  ``Status``, ``build_dataset``), which build and save the workloads.

The self-check drives every report stage on its 3-solver ``tiny`` workload in
a few seconds.
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
