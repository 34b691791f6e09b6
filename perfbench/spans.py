"""In-memory span recording around the layer calls of ``portview report``.

``traced(tracer)`` replaces, for the duration of a ``with`` block, the layer
functions that ``portview.cli`` calls and the ``SubsetScorer`` that
``portview.tradeoff`` and ``portview.shapley`` build, with wrappers that record
one span per call: its name, start, end and parent span. The program itself is
not changed. ``layer_metrics`` turns one traced pipeline into the per-layer
metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import Counter, defaultdict
from fractions import Fraction

from portview import cli, shapley, tradeoff
from portview.pairscore import run_comparable, score_ordered
from portview.portfolio import vbs_run
from portview.render import frac_str
from portview.runstore import Status

# Span name for each function that ``portview.cli`` looks up at call time.
CLI_LAYERS = {
    "ingest": "runstore.ingest",
    "filter_solvers": "runstore.filter_solvers",
    "borda": "pairscore.borda",
    "perf": "portfolio.perf",
    "build_coverage": "mincover.build_coverage",
    "min_cover": "mincover.min_cover",
    "best_subsets": "tradeoff.best_subsets",
    "thresholds": "tradeoff.thresholds",
    "shapley_exact": "shapley.exact",
    "shapley_sampled": "shapley.sampled",
    "fmt_sig": "render.fmt_sig",
    "fmt_pct": "render.fmt_pct",
    "csv_text": "render.csv_text",
    "align_table": "render.align_table",
    "frac_str": "render.frac_str",
}
SCORER_USERS = (tradeoff, shapley)
ROOT_SPAN = "cli.run_pipeline"

# (metric, unit, end-to-end metric it should move, workload where it does most work)
PER_LAYER = (
    ("runstore.ingest_s", "s", "report_s, setup_s", "ties-m250"),
    ("runstore.rows", "count", "report_s, setup_s", "ties-m250"),
    ("runstore.warnings", "count", "report_s, setup_s", "ties-m250"),
    ("pairscore.borda_s", "s", "report_s", "ties-m250"),
    ("pairscore.pairs", "count", "report_s", "ties-m250"),
    ("portfolio.perf_s", "s", "report_s", "sampled-n14"),
    ("portfolio.scorer_init_s", "s", "report_s", "sampled-n14"),
    ("portfolio.evaluate_mask_calls", "count", "report_s", "sampled-n14"),
    ("portfolio.denominator_bits", "bits", "report_s", "sampled-n14"),
    ("tradeoff.best_subsets_s", "s", "report_s", "sampled-n14"),
    ("tradeoff.subsets", "count", "report_s", "sampled-n14"),
    ("shapley.attribution_s", "s", "report_s", "exact-m100, ties-m250"),
    ("shapley.coalitions", "count", "report_s", "exact-m100, ties-m250"),
    ("shapley.max_denominator_bits", "bits", "report_s", "exact-m100, ties-m250"),
    ("render.fmt_sig_s", "s", "report_s", "exact-m100"),
    ("render.fmt_sig_calls", "count", "report_s", "exact-m100"),
    ("render.csv_text_s", "s", "report_s", "exact-m100"),
    ("render.align_table_s", "s", "report_s", "exact-m100"),
    ("render.frac_str_s", "s", "report_s", "exact-m100"),
    ("render.frac_str_fail", "count", "report_s", "exact-m100"),
    ("mincover.build_coverage_s", "s", "none expected (2-7 ms)", "all"),
    ("mincover.min_cover_s", "s", "none expected (2-7 ms)", "all"),
    ("mincover.cover_size", "count", "none expected (2-7 ms)", "all"),
    ("mincover.optima", "count", "none expected (2-7 ms)", "all"),
    ("convert.convert_table_s", "s", "none (convert is not in report)", "ties-m250"),
    ("cli.self_s", "s", "report_s", "all"),
    ("cli.trace_overhead_s", "s", "none (tracing cost)", "all"),
)


class Tracer:
    """Spans and per-span counters of one traced pipeline, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self.calls: dict[str, list[tuple[tuple, object]]] = defaultdict(list)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        def recorded(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            self.calls[name].append((args, result))
            return result

        return recorded

    def count(self, key: str) -> None:
        """Count one event against the innermost open span."""
        self.counts[(self.spans[self._stack[-1]]["name"], key)] += 1

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span["name"]] += span["end"] - span["start"] - covered[span["id"]]
        return out

    def last(self, name: str):
        return self.calls[name][-1]


def _traced_scorer(tracer: Tracer, base: type) -> type:
    class TracedScorer(base):
        def __init__(self, *args, **kwargs):
            tracer.wrap("portfolio.SubsetScorer", super().__init__)(*args, **kwargs)

        def evaluate_mask(self, mask):
            tracer.count("evaluate_mask")
            return super().evaluate_mask(mask)

    return TracedScorer


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route the pipeline's layer calls through ``tracer`` inside the block."""
    saved = [(cli, attr, getattr(cli, attr)) for attr in CLI_LAYERS]
    saved += [(module, "SubsetScorer", module.SubsetScorer) for module in SCORER_USERS]
    try:
        for attr, span_name in CLI_LAYERS.items():
            setattr(cli, attr, tracer.wrap(span_name, getattr(cli, attr)))
        for module in SCORER_USERS:
            module.SubsetScorer = _traced_scorer(tracer, module.SubsetScorer)
        yield tracer.wrap(ROOT_SPAN, cli.run_pipeline)
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def denominator_bits(ds, space, baseline) -> int:
    """Bits of the lcm of every per-instance score of ``space`` against VBS(baseline).

    Computed from the public scoring functions, with the symmetric half point
    for instances neither side solves, so it does not depend on how
    ``SubsetScorer`` stores its rows.
    """
    lcm = 1
    for iid in ds.instance_ids:
        best = vbs_run(ds, baseline, iid)
        for sid in space:
            mine = run_comparable(ds, sid, iid)
            if mine.status is Status.UNSOLVED and best.status is Status.UNSOLVED:
                lcm = math.lcm(lcm, 2)
            else:
                lcm = math.lcm(lcm, score_ordered(mine, best)[0].denominator)
    return lcm.bit_length()


def frac_str_failures(tracer: Tracer, values) -> int:
    """How many exact values ``render.frac_str`` cannot turn into text."""
    render = tracer.wrap("render.frac_str", frac_str)
    failed = 0
    for value in values:
        try:
            render(value)
        except ValueError:  # Python's int-to-str digit limit
            failed += 1
    return failed


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced ``run_pipeline`` call.

    Every exact Shapley value is also rendered with ``render.frac_str`` (as
    the JSON sidecar would), so its failures show even when the workload's
    formats leave the sidecar out.
    """
    ds = tracer.last("runstore.ingest")[1]
    (_, core, baseline), _ = tracer.last("tradeoff.best_subsets")
    cover = tracer.last("mincover.min_cover")[1]
    # Coalition values computed: each one once in exact mode; in sampled mode
    # every permutation walks its n prefix coalitions.
    if tracer.calls["shapley.exact"]:
        report = tracer.last("shapley.exact")[1]
        coalitions = tracer.counts[("shapley.exact", "evaluate_mask")]
        exact = [v for v in report.values.values() if isinstance(v, Fraction)]
    else:
        report = tracer.last("shapley.sampled")[1]
        coalitions = report.sample_count * len(report.portfolio)
        exact = []
    frac_str_fail = frac_str_failures(tracer, exact)
    own = tracer.self_times()
    pairs = 0
    for (scenario_ds,), _ in tracer.calls["pairscore.borda"]:
        n = len(scenario_ds.solver_ids)
        pairs += n * (n - 1) * len(scenario_ds.instance_ids)
    return {
        "runstore.ingest_s": own["runstore.ingest"],
        "runstore.rows": len(ds.runs),
        "runstore.warnings": len(ds.warnings),
        "pairscore.borda_s": own["pairscore.borda"],
        "pairscore.pairs": pairs,
        "portfolio.perf_s": own["portfolio.perf"],
        "portfolio.scorer_init_s": own["portfolio.SubsetScorer"],
        "portfolio.evaluate_mask_calls": sum(
            n for (_, key), n in tracer.counts.items() if key == "evaluate_mask"
        ),
        "portfolio.denominator_bits": denominator_bits(ds, core, baseline),
        "tradeoff.best_subsets_s": own["tradeoff.best_subsets"],
        "tradeoff.subsets": tracer.counts[("tradeoff.best_subsets", "evaluate_mask")],
        "shapley.attribution_s": own["shapley.exact"] + own["shapley.sampled"],
        "shapley.coalitions": coalitions,
        "shapley.max_denominator_bits": max((v.denominator.bit_length() for v in exact), default=0),
        "render.fmt_sig_s": own["render.fmt_sig"],
        "render.fmt_sig_calls": len(tracer.calls["render.fmt_sig"]),
        "render.csv_text_s": own["render.csv_text"],
        "render.align_table_s": own["render.align_table"],
        "render.frac_str_s": own["render.frac_str"],
        "render.frac_str_fail": frac_str_fail,
        "mincover.build_coverage_s": own["mincover.build_coverage"],
        "mincover.min_cover_s": own["mincover.min_cover"],
        "mincover.cover_size": cover.size,
        "mincover.optima": len(cover.portfolios),
        "cli.self_s": own[ROOT_SPAN],
    }


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time summed per layer (the span-name prefix before the dot)."""
    out: dict[str, float] = defaultdict(float)
    for name, seconds in tracer.self_times().items():
        out[name.split(".")[0]] += seconds
    return dict(out)
