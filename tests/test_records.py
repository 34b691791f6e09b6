"""Semantics of the result records and of the two option classes.

Result records are immutable named tuples: a field cannot be set, and they
compare and unpack as tuples. ``Dataset`` is immutable too and its equality
ignores ``warnings``. The validating records check their values in ``_make``
and ``_replace`` too. ``ReportConfig`` keeps its defaults as class attributes,
which the CLI flags read, and an instance cannot be changed once checked;
``ColumnMapping`` gives each mapping its own dicts.
"""

from fractions import Fraction

import pytest

from portview import cli
from portview.cli import ReportConfig
from portview.mincover import CoverageMap, CoverSolution
from portview.pairscore import Comparable, ScoreMatrix
from portview.portfolio import PerfRatio
from portview.runstore import (
    ColumnMapping,
    DataError,
    Dataset,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    build_dataset,
    parse_rational,
)
from portview.shapley import AttributionReport, ShapleyMode
from portview.tradeoff import TradeoffCurve, TradeoffEntry

HALF = Fraction(1, 2)
RATIO = PerfRatio(HALF, Fraction(1), HALF)
META = InstanceMeta("i1", ProblemKind.DECISION, Fraction(10))
RUN = RunRecord("a", "i1", Status.COMPLETE, Fraction(1))
COMPARABLE = Comparable(Status.COMPLETE, Fraction(1), None, ProblemKind.DECISION)
DATASET = build_dataset([META], {"a": True}, [RUN])

RECORDS = {
    "CoverageMap": (CoverageMap({"a": frozenset({"i1"})}, frozenset({"i1"})), "universe"),
    "CoverSolution": (CoverSolution((("a",),), 1, True), "size"),
    "ScoreMatrix": (ScoreMatrix({"a": Fraction(0)}, {"a": Fraction(0)}), "totals"),
    "PerfRatio": (RATIO, "value"),
    "AttributionReport": (AttributionReport({"a": HALF}, ShapleyMode.EXACT, ("a",), ("a",)), "mode"),
    "TradeoffEntry": (TradeoffEntry(1, ("a",), RATIO), "k"),
    "TradeoffCurve": (TradeoffCurve((TradeoffEntry(1, ("a",), RATIO),), ("a",), ("a",)), "entries"),
    "InstanceMeta": (META, "timeout"),
    "RunRecord": (RUN, "time"),
    "Comparable": (COMPARABLE, "time"),
    "Dataset": (DATASET, "runs"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_field_cannot_be_set(name):
    record, field = RECORDS[name]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is before


def test_records_compare_and_unpack_as_tuples():
    numerator, denominator, value, tied_unsolved = RATIO
    assert (numerator, denominator, value, tied_unsolved) == (HALF, 1, HALF, 0)
    assert RATIO == (HALF, Fraction(1), HALF, 0)
    assert RUN == ("a", "i1", Status.COMPLETE, Fraction(1), None)
    assert TradeoffEntry(1, ("a",), RATIO).value == HALF


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RUN._replace(time=Fraction(-1)), r"^run \('a', 'i1'\): negative time$"),
        (lambda: RunRecord._make(["a", "i1", Status.COMPLETE, Fraction(-2), None]),
         r"^run \('a', 'i1'\): negative time$"),
        (lambda: META._replace(timeout=Fraction(0)), r"^instance 'i1': timeout must be positive$"),
        (lambda: COMPARABLE._replace(objective=Fraction(3)),
         r"^comparable: decision instance must not carry an objective$"),
    ],
    ids=["run-replace", "run-make", "instance-replace", "comparable-replace"],
)
def test_tuple_helpers_apply_the_constructor_checks(build, message):
    with pytest.raises(DataError, match=message):
        build()


def test_a_valid_replace_keeps_the_record_type():
    later = RUN._replace(time=Fraction(2))
    assert type(later) is RunRecord and later == ("a", "i1", Status.COMPLETE, Fraction(2), None)
    assert RunRecord._make(later) == later
    assert META._replace(timeout=Fraction(5)).timeout == 5
    assert COMPARABLE._replace(time=Fraction(3)) == (Status.COMPLETE, 3, None, ProblemKind.DECISION)


def test_dataset_equality_ignores_warnings():
    warned = Dataset(DATASET.instances, DATASET.solvers, DATASET.runs, ("a note",))
    assert warned == DATASET and warned.warnings != DATASET.warnings
    assert DATASET != Dataset(DATASET.instances, {"a": False}, DATASET.runs)
    with pytest.raises(TypeError):
        hash(DATASET)


def test_report_config_class_defaults_are_the_cli_defaults():
    args = cli.build_parser().parse_args(["report", "--data", "d.csv", "--out", "out"])
    assert ReportConfig.scenario == args.scenario == "participants"
    assert ReportConfig.epsilon == parse_rational(args.epsilon) == 0
    assert ReportConfig.cap == args.cap
    assert ReportConfig.mode == args.mode == ShapleyMode.EXACT.value
    assert ReportConfig.samples == args.samples
    assert ReportConfig.seed == args.seed
    assert ReportConfig.levels == tuple(map(parse_rational, args.levels.split(",")))
    assert ReportConfig.formats == tuple(args.formats.split(","))


def test_report_config_builds_by_keyword_and_rejects_unknown_ones():
    cfg = ReportConfig(data="d.csv", out_dir="out", mode="sampled")
    assert (cfg.data, cfg.out_dir, cfg.mode) == ("d.csv", "out", "sampled")
    assert cfg.samples == ReportConfig.samples and ReportConfig.mode == "exact"
    with pytest.raises(TypeError, match="modes"):
        ReportConfig(data="d.csv", out_dir="out", modes="sampled")


def test_a_report_config_cannot_be_changed_after_its_checks():
    cfg = ReportConfig(data="d.csv", out_dir="out", scenario="all")
    for name in ("scenario", "mode", "data", "extra"):
        with pytest.raises(AttributeError, match=f"immutable: cannot set or delete '{name}'"):
            setattr(cfg, name, "bogus")
        with pytest.raises(AttributeError, match="immutable"):
            delattr(cfg, name)
    assert (cfg.data, cfg.scenario, cfg.mode) == ("d.csv", "all", "exact")
    assert not hasattr(cfg, "extra")


def test_default_column_mappings_share_no_dict():
    first, second = ColumnMapping(), ColumnMapping()
    for name in ("columns", "defaults", "status_map", "kind_map"):
        assert getattr(first, name) == {} and getattr(first, name) is not getattr(second, name)
    first.columns["solver"] = ["team"]
    assert second.columns == {}
    assert (first.delimiter, first.join) == (",", "/")
