import io
import itertools
import json
import random
from fractions import Fraction

import pytest

from portview.cli import main
from portview.convert import convert_table, load_mapping
from portview.pairscore import Comparable
from portview.runstore import (
    ColumnMapping,
    DataError,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    build_dataset,
    ingest,
    parse_rational,
    read_table,
    write_canonical,
)
from randgen import make_dataset
from reference import reference_coerce_run

HEADER = "solver,instance,kind,status,time,objective,participant,timeout"


def test_identity_mapping_on_canonical_file_is_byte_identical():
    rng = random.Random(2222)
    ds = make_dataset(rng, n_solvers=3, n_instances=4)
    text = write_canonical(ds)
    converted, warnings = convert_table(io.StringIO(text))
    assert converted == text
    assert warnings == []


def test_status_synonyms_normalized():
    mapping = ColumnMapping()
    mapping.status_map = {"SC": "COMPLETE", "UNK": "UNSOLVED"}
    raw = (
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,SC,1.000,,1,10.000\n"
        "b,i1,DECISION,unk,9.000,,1,10.000\n"
    )
    converted, warnings = convert_table(io.StringIO(raw), mapping)
    ds = ingest(io.StringIO(converted))
    assert ds.run("a", "i1").status is Status.COMPLETE
    assert ds.run("b", "i1").status is Status.UNSOLVED
    assert warnings == []


def test_objective_on_decision_dropped_with_warning():
    raw = (
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,COMPLETE,1.000,42,1,10.000\n"
    )
    converted, warnings = convert_table(io.StringIO(raw))
    assert any(
        "run ('a', 'i1'): decision instance must not carry an objective, objective dropped" in w
        for w in warnings
    )
    ds = ingest(io.StringIO(converted))
    assert ds.run("a", "i1").objective is None


def test_solved_without_objective_becomes_unsolved():
    raw = (
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,MINIMIZE,INCOMPLETE,1.000,,1,10.000\n"
    )
    converted, warnings = convert_table(io.StringIO(raw))
    assert any("recorded as UNSOLVED" in w for w in warnings)
    assert ingest(io.StringIO(converted)).run("a", "i1").status is Status.UNSOLVED


def test_unknown_status_becomes_unsolved():
    raw = (
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,WEIRD,1.000,,1,10.000\n"
    )
    converted, warnings = convert_table(io.StringIO(raw))
    assert any("unknown status" in w for w in warnings)
    assert ingest(io.StringIO(converted)).run("a", "i1").status is Status.UNSOLVED


def test_negative_time_becomes_unsolved():
    raw = (
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,COMPLETE,-3,,1,10.000\n"
    )
    converted, warnings = convert_table(io.StringIO(raw))
    assert any("run ('a', 'i1'): negative time, recorded as UNSOLVED" in w for w in warnings)
    run = ingest(io.StringIO(converted)).run("a", "i1")
    assert run.status is Status.UNSOLVED


def test_incomplete_on_decision_becomes_unsolved():
    raw = (
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,INCOMPLETE,1.000,,1,10.000\n"
    )
    converted, warnings = convert_table(io.StringIO(raw))
    assert any(
        "INCOMPLETE is not valid on a decision instance, recorded as UNSOLVED" in w
        for w in warnings
    )
    assert ingest(io.StringIO(converted)).run("a", "i1").status is Status.UNSOLVED


def test_mapping_with_renames_joins_and_defaults(tmp_path):
    config = {
        "delimiter": ";",
        "columns": {
            "solver": "Solver Name",
            "instance": ["Problem", "Instance"],
            "kind": "Type",
            "status": "Result",
            "time": "Seconds",
            "objective": "Obj",
        },
        "defaults": {"participant": "1", "timeout": "1200"},
        "status": {"S": "INCOMPLETE", "SC": "COMPLETE"},
        "kind": {"OPT-MIN": "MINIMIZE"},
    }
    path = tmp_path / "map.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    mapping = load_mapping(path)
    raw = (
        "Solver Name;Problem;Instance;Type;Result;Seconds;Obj\n"
        "gecode;knapsack;k07;OPT-MIN;SC;4.5;19\n"
        "choco;knapsack;k07;OPT-MIN;S;900;21\n"
    )
    converted, warnings = convert_table(io.StringIO(raw), mapping)
    assert warnings == []
    ds = ingest(io.StringIO(converted))
    assert set(ds.instances) == {"knapsack/k07"}
    assert ds.instances["knapsack/k07"].timeout == 1200
    assert ds.run("gecode", "knapsack/k07").status is Status.COMPLETE
    assert ds.run("choco", "knapsack/k07").objective == 21
    assert ds.solvers == {"gecode": True, "choco": True}


def test_unmappable_column_rejected():
    mapping = ColumnMapping()
    mapping.columns["time"] = ["Runtime"]
    raw = "solver,instance,kind,status,time,objective,participant,timeout\n"
    with pytest.raises(DataError, match="Runtime"):
        convert_table(io.StringIO(raw), mapping)


def test_unknown_kind_rejected():
    raw = (
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,PUZZLE,COMPLETE,1.000,,1,10.000\n"
    )
    with pytest.raises(DataError, match="problem kind"):
        convert_table(io.StringIO(raw))


def test_mapping_rejects_unknown_canonical_column(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"columns": {"bogus": "x"}}), encoding="utf-8")
    with pytest.raises(DataError, match="unknown canonical column"):
        load_mapping(path)


def test_converted_output_reingests_cleanly():
    raw = (
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,MAXIMIZE,INCOMPLETE,2.000,7,1,10.000\n"
        "a,i2,DECISION,COMPLETE,99,5,1,10.000\n"
        "b,i1,MAXIMIZE,BROKEN,1.000,,0,10.000\n"
    )
    converted, warnings = convert_table(io.StringIO(raw))
    assert warnings  # clamped time, dropped objective, unknown status
    ds = ingest(io.StringIO(converted))
    assert len(ds.runs) == len(ds.solvers) * len(ds.instances)


def test_short_row_rejected_with_field_count():
    raw = (
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,COMPLETE,1.000\n"
    )
    with pytest.raises(DataError, match="row 2: expected 8 fields, got 5"):
        convert_table(io.StringIO(raw))


def test_short_row_is_a_validation_error_in_cli(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,COMPLETE,1.000\n",
        encoding="utf-8",
    )
    assert main(["convert", "--data", str(raw)]) == 1
    assert "row 2: expected 8 fields, got 5" in capsys.readouterr().err


def test_duplicate_row_is_named_in_a_lenient_read(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,COMPLETE,1.000,,1,10.000\n"
        "b,i1,DECISION,COMPLETE,2.000,,1,10.000\n"
        "a,i1,DECISION,COMPLETE,3.000,,1,10.000\n",
        encoding="utf-8",
    )
    assert main(["convert", "--data", str(raw)]) == 1
    err = capsys.readouterr().err
    assert err == "error: row 4: duplicate run for solver 'a' on instance 'i1'\n", err


@pytest.mark.parametrize("flag", ["maybe", ""])
def test_unparseable_participant_flag_warns(flag):
    raw = (
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        f"a,i1,DECISION,COMPLETE,1.000,,{flag},10.000\n"
    )
    converted, warnings = convert_table(io.StringIO(raw))
    assert warnings == [
        f"row 2: unparseable participant flag {flag!r}, recorded as non-participant"
    ]
    assert ingest(io.StringIO(converted)).solvers == {"a": False}
    with pytest.raises(DataError, match="unparseable participant flag"):
        ingest(io.StringIO(raw))


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_accepted_participant_flag_tokens(strict):
    tokens = {"1 ": True, " tRUe ": True, "Yes": True, " 0": False, "False ": False, " nO ": False}
    no_flag_column = "solver,instance,kind,status,time,objective,timeout"
    for token, flag in tokens.items():
        as_cell = (f"{HEADER}\na,i1,DECISION,COMPLETE,1.000,,{token},10.000\n", ColumnMapping())
        as_default = (
            f"{no_flag_column}\na,i1,DECISION,COMPLETE,1.000,,10.000\n",
            ColumnMapping(defaults={"participant": token}),
        )
        for raw, mapping in (as_cell, as_default):
            ds = read_table(io.StringIO(raw), mapping, strict=strict)
            assert ds.solvers == {"a": flag}, token
            assert list(ds.warnings) == [], token


@pytest.mark.parametrize(
    "kind, status, objective, rule, warning",
    [
        ("MINIMIZE", "UNSOLVED", "42", "unsolved run must not carry an objective",
         "run ('a', 'i1'): unsolved run must not carry an objective, objective dropped"),
        ("MINIMIZE", "COMPLETE", "", "solved run on an optimization instance requires an objective",
         "run ('a', 'i1'): solved run on an optimization instance requires an objective, "
         "recorded as UNSOLVED"),
        ("DECISION", "INCOMPLETE", "", "INCOMPLETE is not valid on a decision instance",
         "run ('a', 'i1'): INCOMPLETE is not valid on a decision instance, recorded as UNSOLVED"),
        ("DECISION", "COMPLETE", "42", "decision instance must not carry an objective",
         "run ('a', 'i1'): decision instance must not carry an objective, objective dropped"),
    ],
    ids=["unsolved-objective", "solved-without-objective", "decision-incomplete",
         "decision-objective"],
)
def test_every_path_applies_the_same_run_shape_rule(kind, status, objective, rule, warning):
    value = Fraction(objective) if objective else None
    with pytest.raises(DataError, match=f"comparable: {rule}"):
        Comparable(Status(status), Fraction(5), value, ProblemKind(kind))
    with pytest.raises(DataError, match=f"^run \\('a', 'i1'\\): {rule}$"):
        build_dataset(
            [InstanceMeta("i1", ProblemKind(kind), Fraction(10))], {"a": True},
            [RunRecord("a", "i1", Status(status), Fraction(5), value)],
        )
    raw = f"{HEADER}\na,i1,{kind},{status},5,{objective},1,10\n"
    with pytest.raises(DataError, match=f"row 2: run \\('a', 'i1'\\): {rule}"):
        ingest(io.StringIO(raw))
    converted, warnings = convert_table(io.StringIO(raw))
    assert warnings == [f"row 2: {warning}"]
    ingest(io.StringIO(converted))


@pytest.mark.parametrize(
    "status, time, warning",
    [
        ("WEIRD", "5", "row 2: unknown status 'WEIRD', recorded as UNSOLVED"),
        ("COMPLETE", "-1", "row 2: run ('a', 'i1'): negative time, recorded as UNSOLVED"),
    ],
    ids=["unknown-status", "unusable-time"],
)
def test_repair_to_unsolved_drops_the_objective_with_one_warning(status, time, warning):
    raw = f"{HEADER}\na,i1,MINIMIZE,{status},{time},42,1,10\n"
    converted, warnings = convert_table(io.StringIO(raw))
    assert warnings == [warning]
    assert ingest(io.StringIO(converted)).run("a", "i1").objective is None


@pytest.mark.parametrize(
    "mapping, message",
    [
        ('{"delimiter": ";;"}', "delimiter ';;' is not a single character"),
        ("{bad", "mapping: invalid JSON"),
        ("[1, 2]", "mapping: the top level must be a JSON object"),
        ('{"columns": {"solver": 5}}', "mapping: column 'solver' must be a string or a list"),
    ],
    ids=["delimiter", "invalid-json", "array", "column-value"],
)
def test_bad_mapping_is_a_validation_error(mapping, message, demo_path, tmp_path, capsys):
    config = tmp_path / "map.json"
    config.write_text(mapping, encoding="utf-8")
    assert main(["convert", "--data", str(demo_path), "--mapping", str(config)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "mapping, message",
    [
        ('{"status": {"S": 5}}', "mapping: 'status' synonym for 'S' must be a string"),
        ('{"columns": ["solver"]}', "mapping: 'columns' must be a JSON object"),
        ('{"kind": 3}', "mapping: 'kind' must be a JSON object"),
        ('{"defaults": [1]}', "mapping: 'defaults' must be a JSON object"),
        (
            '{"columns": {"solver": ["solver", "instance"]}, "join": 5}',
            "mapping: 'join' must be a string",
        ),
    ],
    ids=["status-value", "columns-list", "kind-number", "defaults-list", "join-number"],
)
def test_malformed_mapping_shape_is_a_validation_error(
    mapping, message, demo_path, tmp_path, capsys
):
    config = tmp_path / "map.json"
    config.write_text(mapping, encoding="utf-8")
    assert main(["convert", "--data", str(demo_path), "--mapping", str(config)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "internal error" not in err


def test_lenient_repairs_match_the_case_by_case_reference():
    """Every kind x status x time x objective row converts to the reference's
    run with as many warnings. Times beyond the timeout of 10 get one clamp
    warning from ``build_dataset`` on both sides."""
    grid = list(itertools.product(
        ["DECISION", "MINIMIZE", "MAXIMIZE"],
        ["COMPLETE", "INCOMPLETE", "UNSOLVED", "WEIRD"],
        ["5", "15", "-1", "soon", "inf"],
        ["", "7", "many", "nan"],
    ))
    lines = [HEADER] + [
        f"a,i{n},{kind},{status},{time},{objective},1,10"
        for n, (kind, status, time, objective) in enumerate(grid)
    ]
    ds = read_table(io.StringIO("\n".join(lines) + "\n"), ColumnMapping(), strict=False)
    expected_warnings = 0
    for n, (kind, status_text, time_text, objective_text) in enumerate(grid):
        row_no, iid = n + 2, f"i{n}"
        meta = InstanceMeta(iid, ProblemKind(kind), Fraction(10))
        notes: list[str] = []
        status = Status.__members__.get(status_text)
        if status is None:
            notes.append("unknown status")
        objective = None
        if objective_text:
            try:
                objective = parse_rational(objective_text)
            except DataError:
                notes.append("unparseable objective")
        expected = reference_coerce_run(row_no, "a", meta, status, time_text, objective, notes)
        if expected.time > meta.timeout:
            notes.append("clamped")
            expected = RunRecord("a", iid, expected.status, meta.timeout, expected.objective)
        assert ds.run("a", iid) == expected, (kind, status_text, time_text, objective_text)
        row_warnings = [
            w for w in ds.warnings
            if w.startswith((f"row {row_no}: ", f"run ('a', '{iid}'): "))
        ]
        assert len(row_warnings) == len(notes), (row_warnings, notes)
        expected_warnings += len(notes)
    assert len(ds.warnings) == expected_warnings
