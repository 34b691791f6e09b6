"""Semantics of the result records and of the two option classes.

Result records are immutable named tuples: a field cannot be set, and they
compare and unpack as tuples. ``Dataset`` is immutable too and its equality
ignores ``warnings``. The validating records check their values in ``_make``
and ``_replace`` too. ``ReportConfig`` keeps its defaults as class attributes,
which no CLI flag repeats (``--help`` states each, rendered from them), and an
instance cannot be changed once checked;
``ColumnMapping`` gives each mapping its own dicts.
"""

import argparse
import re
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


# Each subcommand's flags, in --help order.
SUBCOMMAND_FLAGS = {
    "ingest": ["--data", "--out", "--delimiter"],
    "convert": ["--data", "--out", "--mapping"],
    "borda": ["--data", "--out", "--format", "--scenario"],
    "oracle": ["--data", "--out", "--format"],
    "mincover": ["--data", "--out", "--format", "--scenario", "--epsilon", "--cap"],
    "tradeoff": [
        "--data", "--out", "--format", "--scenario", "--epsilon", "--cap", "--space", "--levels",
    ],
    "shapley": [
        "--data", "--out", "--format", "--scenario", "--epsilon", "--cap", "--portfolio",
        "--mode", "--samples", "--seed",
    ],
    "report": [
        "--data", "--out", "--scenario", "--epsilon", "--cap", "--mode", "--samples", "--seed",
        "--levels", "--formats",
    ],
}


def _minimal_args(command: str, *flags: str):
    out = ["--out", "out"] if command == "report" else []
    return cli.build_parser().parse_args([command, "--data", "d.csv", *out, *flags])


def _subparsers() -> argparse._SubParsersAction:
    return next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))


def test_build_parser_gives_each_subcommand_exactly_its_flags_in_order():
    subparsers = _subparsers()
    assert list(subparsers.choices) == list(SUBCOMMAND_FLAGS)
    for command, flags in SUBCOMMAND_FLAGS.items():
        actions = {a.option_strings[-1]: a for a in subparsers.choices[command]._actions}
        assert list(actions) == ["--help", *flags], command
        assert actions["--data"].required and actions["--out"].required == (command == "report")
        assert actions["--data"].nargs == ("+" if command == "oracle" else None)


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_an_option_left_off_the_command_line_keeps_its_class_default(command):
    args = _minimal_args(command)
    options = list(ReportConfig.__annotations__)
    taken = [name for name in options if f"--{name}" in SUBCOMMAND_FLAGS[command]]
    assert [name for name in options if name in vars(args)] == taken
    cfg = cli._config(args)
    assert vars(cfg).keys() == {"data", "out_dir"}
    for name in options:
        assert getattr(cfg, name) == getattr(ReportConfig, name), name


@pytest.mark.parametrize(
    "flag, text, value",
    [("--scenario", "all", "all"), ("--epsilon", "0", Fraction(0)),
     ("--epsilon", "1/10", Fraction(1, 10)), ("--cap", "0", 0), ("--cap", "5", 5),
     ("--mode", "sampled", "sampled"), ("--samples", "0", 0), ("--seed", "0", 0),
     ("--seed", "3", 3), ("--levels", "0,1/2", (Fraction(0), HALF)),
     ("--formats", "json", ("json",))],
)
def test_an_option_given_on_the_command_line_reaches_the_config(flag, text, value):
    """Falsy values too: only an option that is absent keeps its default."""
    for command, flags in SUBCOMMAND_FLAGS.items():
        if flag in flags:
            cfg = cli._config(_minimal_args(command, flag, text))
            assert vars(cfg)[flag[2:]] == value, command


# Each option's default as --help states it: the class attribute, as it would be typed.
HELP_DEFAULTS = {
    "scenario": "participants", "epsilon": "0", "cap": "1000", "mode": "exact",
    "samples": "10000", "seed": "0", "levels": "0.8,0.9,0.95", "formats": "csv,text,json",
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
def test_help_states_each_option_default(command):
    # the options section, argparse's line breaks undone
    options = " ".join(_subparsers().choices[command].format_help().split()).split("options:")[1]
    for flag in SUBCOMMAND_FLAGS[command]:
        name = flag[2:]
        if name in ReportConfig.__annotations__:
            stated = re.search(rf"{flag} .*?\(default: ([^)]*)\)", options).group(1)
            assert stated == HELP_DEFAULTS[name], (command, flag)
            typed = cli._config(_minimal_args(command, flag, stated))
            assert getattr(typed, name) == getattr(ReportConfig, name), (command, flag)


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
