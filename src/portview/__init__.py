"""Portfolio-viewpoint analysis of solver competition results.

Core surface: ingest competition run records (`runstore`), rank solvers with
pairwise scores (`pairscore`), measure portfolios against oracle baselines
(`portfolio`), find minimum oracle-equivalent portfolios (`mincover`), chart
size/performance trade-offs (`tradeoff`), and attribute performance to
individual solvers (`shapley`). The `cli` module exposes all of it as the
`portview` command.
"""

from .mincover import CoverageMap, CoverSolution, build_coverage, min_cover
from .pairscore import Comparable, ScoreMatrix, borda, run_comparable, score_ordered
from .portfolio import PerfRatio, SubsetScorer, perf, vbs_run
from .runstore import (
    DataError,
    Dataset,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    build_dataset,
    filter_solvers,
    ingest,
    quality_key,
    save_canonical,
    write_canonical,
)
from .shapley import AttributionReport, ShapleyMode, shapley_exact, shapley_sampled
from .tradeoff import TradeoffCurve, TradeoffEntry, best_subsets, thresholds

__version__ = "0.1.0"

__all__ = [
    "AttributionReport",
    "Comparable",
    "CoverSolution",
    "CoverageMap",
    "DataError",
    "Dataset",
    "InstanceMeta",
    "PerfRatio",
    "ProblemKind",
    "RunRecord",
    "ScoreMatrix",
    "ShapleyMode",
    "Status",
    "SubsetScorer",
    "TradeoffCurve",
    "TradeoffEntry",
    "best_subsets",
    "borda",
    "build_coverage",
    "build_dataset",
    "filter_solvers",
    "ingest",
    "min_cover",
    "perf",
    "quality_key",
    "run_comparable",
    "save_canonical",
    "score_ordered",
    "shapley_exact",
    "shapley_sampled",
    "thresholds",
    "vbs_run",
    "write_canonical",
]
