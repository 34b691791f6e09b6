import io
import os
import random
import subprocess
import sys
from decimal import Context, InvalidOperation, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from portview import runstore
from portview.cli import main
from portview.runstore import (
    ColumnMapping,
    DataError,
    Dataset,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    build_dataset,
    filter_solvers,
    format_duration,
    format_rational,
    ingest,
    parse_duration,
    parse_rational,
    read_table,
    run_shape_violation,
    write_canonical,
)
from randgen import make_dataset, random_subset, tie_heavy_dataset
from reference import (
    reference_format_duration,
    reference_quality_ranking,
    reference_read_table,
    reference_write_canonical,
)

HEADER = "solver,instance,kind,status,time,objective,participant,timeout"


def _ingest(rows: list[str]):
    return ingest(io.StringIO("\n".join([HEADER] + rows) + "\n"))


def test_ingest_checks_each_row_shape_once(monkeypatch, demo_path):
    calls = []

    def counting(kind, status, objective):
        calls.append((kind, status, objective))
        return run_shape_violation(kind, status, objective)

    monkeypatch.setattr(runstore, "run_shape_violation", counting)
    ingest(demo_path)
    assert len(calls) == len(demo_path.read_text(encoding="utf-8").splitlines()) - 1


def test_identity_ingestion_two_by_two():
    ds = _ingest(
        [
            "a,i1,DECISION,COMPLETE,10.000,,1,60.000",
            "a,i2,DECISION,UNSOLVED,60.000,,1,60.000",
            "b,i1,DECISION,COMPLETE,20.000,,0,60.000",
            "b,i2,DECISION,COMPLETE,5.000,,0,60.000",
        ]
    )
    assert len(ds.runs) == 4
    assert ds.solvers == {"a": True, "b": False}
    assert all(r.status is not None for r in ds.runs.values())
    synthesized = [r for r in ds.runs.values() if r.status is Status.UNSOLVED]
    assert len(synthesized) == 1  # the explicit UNSOLVED row, none synthesized


def test_missing_pair_materialized_unsolved():
    ds = _ingest(
        [
            "a,i1,DECISION,COMPLETE,10.000,,1,60.000",
            "a,i2,DECISION,COMPLETE,12.000,,1,60.000",
            "b,i1,DECISION,COMPLETE,20.000,,1,60.000",
        ]
    )
    assert len(ds.runs) == 4
    filled = ds.run("b", "i2")
    assert filled.status is Status.UNSOLVED
    assert filled.time == Fraction(60)
    assert filled.objective is None


def test_negative_time_names_row():
    with pytest.raises(DataError, match="row 3"):
        _ingest(
            [
                "a,i1,DECISION,COMPLETE,10.000,,1,60.000",
                "a,i2,DECISION,COMPLETE,-1,,1,60.000",
            ]
        )


def test_duplicate_pair_rejected():
    with pytest.raises(DataError, match="duplicate run"):
        _ingest(
            [
                "a,i1,DECISION,COMPLETE,10.000,,1,60.000",
                "a,i1,DECISION,COMPLETE,11.000,,1,60.000",
            ]
        )


def test_duplicate_row_is_named_in_a_strict_read(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    data.write_text("\n".join([
        HEADER,
        "a,i1,DECISION,COMPLETE,10.000,,1,60.000",
        "b,i1,DECISION,COMPLETE,12.000,,1,60.000",
        "a,i1,DECISION,COMPLETE,11.000,,1,60.000",
    ]) + "\n", encoding="utf-8")
    assert main(["ingest", "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err == "error: row 4: duplicate run for solver 'a' on instance 'i1'\n", err
    # a long id is cut, as any quoted cell is
    run = "s" * 1000 + ",i1,DECISION,COMPLETE,1,,1,60"
    with pytest.raises(DataError, match=f"^row 3: duplicate run for solver '{'s' * 40}…' "):
        _ingest([run, run])


LONG = "x" * 1000


@pytest.mark.parametrize(
    "rows, message",
    [
        ([f"a,i1,DECISION,{LONG},5,,1,10"], "unknown status"),
        ([f"a,i1,{LONG},COMPLETE,5,,1,10"], "unknown problem kind"),
        ([f"{LONG},i1,DECISION,COMPLETE,-1,,1,10"], "negative time"),
        ([f"{LONG},i1,DECISION,INCOMPLETE,5,,1,10"], "INCOMPLETE is not valid"),
        ([f"a,{LONG},DECISION,COMPLETE,5,,1,10", f"b,{LONG},MINIMIZE,COMPLETE,5,3,1,10"],
         "redeclared with different kind"),
        ([f"{LONG},i1,DECISION,COMPLETE,5,,1,10", f"{LONG},i2,DECISION,COMPLETE,5,,0,10"],
         "redeclared with different participant"),
        ([f"a,{LONG},DECISION,COMPLETE,5,,1,0"], "timeout must be positive"),
        ([f"{LONG},{LONG},DECISION,COMPLETE,20,,1,10"], "exceeds timeout"),
        ([f"{LONG},{LONG},MINIMIZE,INCOMPLETE,5,2,1,10", f"a,{LONG},MINIMIZE,COMPLETE,5,3,1,10"],
         "better than the proven optimum"),
        ([f"a,{LONG},MINIMIZE,COMPLETE,5,3,1,10", f"b,{LONG},MINIMIZE,COMPLETE,5,4,1,10"],
         "proven-optimal runs disagree"),
    ],
    ids=["status", "kind", "negative-time", "run-shape", "instance-redeclared",
         "solver-redeclared", "timeout", "clamp", "incomplete-beats-optimum",
         "optima-disagree"],
)
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_a_long_cell_is_cut_in_every_message(rows, message, strict):
    source = io.StringIO("\n".join([HEADER] + rows) + "\n")
    try:
        lines = list(read_table(source, ColumnMapping(), strict=strict).warnings)
    except DataError as exc:
        lines = [str(exc)]
    assert [line for line in lines if message in line and "x" * 40 + "…" in line] == lines
    assert lines and max(map(len, lines)) <= 200


def test_a_long_id_is_cut_in_build_dataset_messages():
    cut = f"'{'x' * 40}…'"
    meta = InstanceMeta("i1", ProblemKind.DECISION, Fraction(10))
    long_meta = InstanceMeta(LONG, ProblemKind.DECISION, Fraction(10))

    def run(sid, iid="i1", status=Status.UNSOLVED, time=Fraction(1)):
        return RunRecord(sid, iid, status, time)

    cases = [
        (lambda: build_dataset([long_meta, long_meta], {}, []), f"duplicate instance {cut}"),
        (lambda: build_dataset([meta], {}, [run(LONG)]), f"run references unknown solver {cut}"),
        (lambda: build_dataset([meta], {"a": True}, [run("a", LONG)]),
         f"run references unknown instance {cut}"),
        (lambda: build_dataset([meta], {LONG: True}, [run(LONG), run(LONG)]),
         f"duplicate run for solver {cut} on instance 'i1'"),
        (lambda: build_dataset([meta], {LONG: True}, [run(LONG, status=Status.INCOMPLETE)]),
         f"run ({cut}, 'i1'): INCOMPLETE is not valid on a decision instance"),
        (lambda: run(LONG, time=Fraction(-1)), f"run ({cut}, 'i1'): negative time"),
    ]
    for build, message in cases:
        with pytest.raises(DataError) as caught:
            build()
        assert str(caught.value) == message


def test_a_repeated_bad_objective_warns_on_each_row():
    rows = [f"{s},i1,MINIMIZE,COMPLETE,1,abc,1,60" for s in "ab"]
    ds = read_table(io.StringIO("\n".join([HEADER] + rows) + "\n"), ColumnMapping(), strict=False)
    assert [w.split(":")[0] for w in ds.warnings if "unparseable objective 'abc'" in w] == [
        "row 2", "row 3"
    ]


def test_a_repeated_bad_time_names_the_first_row_in_a_strict_read():
    with pytest.raises(DataError, match=r"^row 2: unparseable time 'soon'$"):
        _ingest([f"{s},i1,DECISION,COMPLETE,soon,,1,60" for s in "ab"])


def test_a_time_equal_to_the_timeout_in_other_digits_is_not_clamped():
    ds = _ingest(["a,i1,DECISION,COMPLETE,1200,,1,1200.000", "b,i1,DECISION,UNSOLVED,0,,1,1200"])
    assert ds.run("a", "i1").time == ds.instances["i1"].timeout == Fraction(1200)
    assert ds.warnings == ()


def test_duplicated_read_column_is_named(tmp_path, capsys):
    data = tmp_path / "dup.csv"
    data.write_text(f"{HEADER},Solver \na,i1,DECISION,COMPLETE,1,,1,60,b\n", encoding="utf-8")
    assert main(["ingest", "--data", str(data)]) == 1
    assert capsys.readouterr().err == (
        "error: column 'solver' appears more than once in the header\n"
    )


def test_duplicated_unread_column_is_allowed():
    ds = ingest(io.StringIO(f"note,{HEADER},note\nx,a,i1,DECISION,COMPLETE,1,,1,60,y\n"))
    assert ds.run("a", "i1").status is Status.COMPLETE


def test_byte_order_mark_is_accepted(demo_path, tmp_path, capsys):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + demo_path.read_bytes())
    for command in ("ingest", "convert"):
        outputs = []
        for path in (demo_path, bom):
            assert main([command, "--data", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out == demo_path.read_text(encoding="utf-8")


def test_duplicate_run_rejected_by_build_dataset():
    runs = [RunRecord("a", "i1", Status.COMPLETE, Fraction(t)) for t in (10, 11)]
    with pytest.raises(DataError, match="^duplicate run for solver 'a' on instance 'i1'$"):
        build_dataset([InstanceMeta("i1", ProblemKind.DECISION, Fraction(60))], {"a": True}, runs)


def test_unknown_kind_rejected():
    with pytest.raises(DataError, match="problem kind"):
        _ingest(["a,i1,COUNTING,COMPLETE,10.000,,1,60.000"])


def test_unknown_status_and_flag_rejected():
    with pytest.raises(DataError, match="status"):
        _ingest(["a,i1,DECISION,MAYBE,10.000,,1,60.000"])
    with pytest.raises(DataError, match="participant"):
        _ingest(["a,i1,DECISION,COMPLETE,10.000,,2,60.000"])


def test_missing_column_rejected():
    with pytest.raises(DataError, match="missing required column"):
        ingest(io.StringIO("solver,instance,kind\na,i1,DECISION\n"))


def test_status_tokens_case_insensitive():
    ds = _ingest(["a,i1,decision,complete,10.000,,true,60.000"])
    assert ds.run("a", "i1").status is Status.COMPLETE
    assert ds.solvers["a"] is True


def test_inconsistent_instance_metadata_rejected():
    with pytest.raises(DataError, match="redeclared"):
        _ingest(
            [
                "a,i1,DECISION,COMPLETE,10.000,,1,60.000",
                "b,i1,MINIMIZE,COMPLETE,10.000,5,1,60.000",
            ]
        )


def test_incomplete_on_decision_rejected():
    with pytest.raises(DataError, match="INCOMPLETE"):
        _ingest(["a,i1,DECISION,INCOMPLETE,10.000,,1,60.000"])


def test_objective_required_on_solved_optimization():
    with pytest.raises(DataError, match="requires an objective"):
        _ingest(["a,i1,MINIMIZE,COMPLETE,10.000,,1,60.000"])


def test_objective_on_decision_rejected():
    with pytest.raises(DataError, match="must not carry an objective"):
        _ingest(["a,i1,DECISION,COMPLETE,10.000,5,1,60.000"])


def test_time_clamped_to_timeout_with_warning():
    ds = _ingest(["a,i1,DECISION,COMPLETE,75.000,,1,60.000"])
    assert ds.run("a", "i1").time == Fraction(60)
    assert any("clamped" in w for w in ds.warnings)
    # runs built in code share no value with the timeout: an equal time in
    # another Fraction object and a time 1 ms under it stay, 1 ms over it is clamped
    timeout = Fraction(60)
    runs = [
        RunRecord("a", "i1", Status.COMPLETE, Fraction(120, 2)),
        RunRecord("b", "i1", Status.COMPLETE, timeout + Fraction(1, 1000)),
        RunRecord("c", "i1", Status.COMPLETE, timeout - Fraction(1, 1000)),
    ]
    assert runs[0].time is not timeout
    meta = InstanceMeta("i1", ProblemKind.DECISION, timeout)
    built = build_dataset([meta], dict.fromkeys("abc", True), runs)
    assert built.run("a", "i1") is runs[0] and built.run("c", "i1") is runs[2]
    assert built.run("b", "i1").time is timeout
    assert built.warnings == ("run ('b', 'i1'): time 60.001 exceeds timeout, clamped to 60.000",)


def test_objective_inconsistency_warnings():
    ds = _ingest(
        [
            "a,i1,MINIMIZE,COMPLETE,10.000,7,1,60.000",
            "b,i1,MINIMIZE,INCOMPLETE,10.000,5,1,60.000",
        ]
    )
    assert any("better than the proven optimum" in w for w in ds.warnings)
    ds = _ingest(
        [
            "a,i1,MINIMIZE,COMPLETE,10.000,7,1,60.000",
            "b,i1,MINIMIZE,COMPLETE,10.000,8,1,60.000",
        ]
    )
    assert any("disagree" in w for w in ds.warnings)


def test_parse_duration_millisecond_granularity():
    assert parse_duration("10.5") == Fraction(21, 2)
    assert parse_duration("0.0015") == Fraction(2, 1000)  # half-even
    assert parse_duration("0.0005") == Fraction(0)
    with pytest.raises(DataError):
        parse_duration("abc")
    assert format_duration(Fraction(21, 2)) == "10.500"
    assert format_duration(Fraction(0)) == "0.000"


# Values (digit underscores too), rounding ties, huge exponents and malformed cells.
CONTEXT_CELLS = ["1.5", " -2.50 ", "1_000.000_5", "7/3", "0.0015", "2.5e3", "1e-9", "1e4299",
                 "abc", "1e9999999999999999999", "nan", "-inf", "1/0", "1e99999"]


def _parsed() -> list[str]:
    """Each cell's ``parse_rational`` and ``parse_duration`` value or message, then the message
    of an ``ingest`` whose one objective is malformed, under the caller's decimal context."""
    results = []
    for parse in (parse_rational, parse_duration):
        for text in CONTEXT_CELLS:
            try:
                results.append(repr(parse(text)))
            except DataError as exc:
                results.append(f"DataError: {exc}")
    try:
        ingest(io.StringIO(f"{HEADER}\na,i1,MINIMIZE,INCOMPLETE,1.5,abc,1,10\n"))
    except DataError as exc:
        results.append(f"DataError: {exc}")
    return results


def _untrapped() -> Context:
    context = Context()
    context.traps[InvalidOperation] = False
    return context


@pytest.mark.parametrize(
    "context", [_untrapped(), Context(prec=3, Emax=10, Emin=-10)], ids=["untrapped", "prec-3"]
)
def test_parsing_does_not_depend_on_the_callers_decimal_context(context):
    expected = _parsed()
    with localcontext(context):
        assert _parsed() == expected
    assert expected[:3] == ["Fraction(3, 2)", "Fraction(-5, 2)", "Fraction(2000001, 2000)"]
    assert "DataError: unparseable objective 'abc'" in expected
    assert expected[-1] == "DataError: row 2: unparseable objective 'abc'"


def test_parsing_does_not_depend_on_the_default_context_at_import():
    """A caller who untraps ``InvalidOperation`` in ``DefaultContext`` before importing
    ``portview`` gets the same values and messages."""
    tests = Path(__file__).resolve().parent
    code = ("import decimal; decimal.DefaultContext.traps[decimal.InvalidOperation] = False\n"
            "from test_runstore import _parsed; print(repr(_parsed()))")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == repr(_parsed()) + "\n"


EDGE_DURATIONS = {
    "0": (Fraction(0), "0.000"),
    "1/2000": (Fraction(1, 2000), "0.000"),
    "3/2000": (Fraction(3, 2000), "0.002"),
    "-1/2000": (Fraction(-1, 2000), "0.000"),
    "-3/2000": (Fraction(-3, 2000), "-0.002"),
    "1/3": (Fraction(1, 3), "0.333"),
    "10**30+1/2000": (10**30 + Fraction(1, 2000), f"{10**30}.000"),
}


@pytest.mark.parametrize("value, text", EDGE_DURATIONS.values(), ids=EDGE_DURATIONS)
def test_format_duration_rounds_half_to_even_like_the_reference(value, text):
    assert format_duration(value) == reference_format_duration(value) == text


def test_format_duration_matches_the_reference_on_random_values():
    rng = random.Random(14)
    denominators = [1, 2, 3, 7, 1000, 2000, 4000, 6000]
    for _ in range(2000):
        value = Fraction(rng.randint(-10**7, 10**7), rng.choice(denominators))
        assert format_duration(value) == reference_format_duration(value), value


def test_write_canonical_matches_the_reference_byte_for_byte():
    rng = random.Random(14)
    datasets = [make_dataset(rng) for _ in range(20)]
    datasets += [make_dataset(rng, n, m) for n, m in ((1, 1), (7, 40), (25, 100))]
    datasets.append(tie_heavy_dataset(random.Random(5), n_solvers=12, n_instances=100))
    datasets += [ingest(path) for path in sorted((Path(__file__).parent / "data").glob("*.csv"))]
    odd = [value for value, _ in EDGE_DURATIONS.values() if value >= 0]
    datasets.append(build_dataset(
        [InstanceMeta(f"i{k}", ProblemKind.MINIMIZE, 10**30 + Fraction(1, 2000)) for k in range(3)],
        {"a": True, "b": False},
        [RunRecord(sid, f"i{k}", Status.INCOMPLETE, odd[k + j], odd[k + 2 * j])
         for j, sid in enumerate("ab") for k in range(3)],
    ))
    for ds in datasets:
        assert write_canonical(ds) == reference_write_canonical(ds)


def test_write_canonical_formats_each_distinct_duration_once(monkeypatch):
    ds = tie_heavy_dataset(random.Random(5), n_solvers=8, n_instances=40)
    calls = []

    def counting(value):
        calls.append(value)
        return format_duration(value)

    monkeypatch.setattr(runstore, "format_duration", counting)
    text = write_canonical(ds)
    distinct = {r.time for r in ds.runs.values()} | {m.timeout for m in ds.instances.values()}
    assert len(calls) == len(set(calls)) == len(distinct) < len(ds.runs)
    assert text == reference_write_canonical(ds)


@pytest.mark.parametrize("time", [Fraction(-1, 2000), -1], ids=["-1/2000", "int"])
def test_run_record_rejects_a_negative_time(time):
    with pytest.raises(DataError, match=r"^run \('a', 'i1'\): negative time$"):
        RunRecord("a", "i1", Status.UNSOLVED, time)


def test_run_record_accepts_a_zero_time():
    assert RunRecord("a", "i1", Status.COMPLETE, Fraction(0)).time == 0


@pytest.mark.parametrize("timeout", [0, Fraction(-1, 2)], ids=["0", "-1/2"])
def test_instance_rejects_a_timeout_that_is_not_positive(timeout):
    with pytest.raises(DataError, match=r"^instance 'i1': timeout must be positive$"):
        InstanceMeta("i1", ProblemKind.DECISION, timeout)


@pytest.mark.parametrize(
    "text", ["1e4300", "1e-4300", "1e9999999", "1" * 4301, "1e999999"],
    ids=["1e4300", "1e-4300", "1e9999999", "4301-digits", "1e999999"],
)
@pytest.mark.parametrize("parse", [parse_rational, parse_duration])
def test_number_needing_more_than_4300_digits_rejected(parse, text):
    with pytest.raises(DataError, match="needs more than 4300 digits"):
        parse(text, what="value")


def test_numbers_at_the_digit_bound_round_trip():
    big, tiny = "9" * 4300, "1e-4299"
    ds = _ingest([f"a,i1,MINIMIZE,INCOMPLETE,{big},{tiny},1,{big}"])
    assert ds.run("a", "i1").objective == parse_rational(tiny)
    assert ingest(io.StringIO(write_canonical(ds))) == ds


def test_rational_rendering_round_trips():
    cases = [Fraction(7, 4), Fraction(1, 3), Fraction(-3, 8), Fraction(5), Fraction(1, 10)]
    for value in cases:
        assert parse_rational(format_rational(value)) == value
    assert format_rational(Fraction(7, 4)) == "1.75"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-3, 8)) == "-0.375"


def test_non_terminating_objective_round_trips():
    ds = _ingest(["a,i1,MINIMIZE,INCOMPLETE,1.000,1/3,1,10.000"])
    assert ds.run("a", "i1").objective == Fraction(1, 3)
    text = write_canonical(ds)
    assert ",1/3," in text
    assert ingest(io.StringIO(text)) == ds


def test_wrong_field_count_rejected():
    with pytest.raises(DataError, match="expected 8 fields"):
        _ingest(["a,i1,DECISION,COMPLETE,10.000,,1,60.000,EXTRA"])


def test_canonical_round_trip_random_datasets():
    rng = random.Random(20240817)
    for _ in range(30):
        ds = make_dataset(rng)
        text = write_canonical(ds)
        again = ingest(io.StringIO(text))
        assert again == ds
        assert write_canonical(again) == text
        assert len(ds.runs) == len(ds.solvers) * len(ds.instances)


def test_filter_identity_and_participants():
    rng = random.Random(7)
    ds = make_dataset(rng, n_solvers=5, n_instances=4)
    assert filter_solvers(ds, ds.solver_ids) == ds
    participants = filter_solvers(ds, ds.participant_ids)
    assert set(participants.solvers) == set(ds.participant_ids)
    assert participants.instances == ds.instances


def test_filter_to_empty_keeps_instances():
    rng = random.Random(8)
    ds = make_dataset(rng, n_solvers=3, n_instances=3)
    empty = filter_solvers(ds, [])
    assert empty.solvers == {}
    assert empty.runs == {}
    assert empty.instances == ds.instances


def test_filter_composition():
    rng = random.Random(9)
    for _ in range(20):
        ds = make_dataset(rng, max_solvers=6, max_instances=5)
        s1 = random_subset(rng, ds.solver_ids)
        s2 = random_subset(rng, s1)
        lhs = filter_solvers(filter_solvers(ds, s1), s2)
        rhs = filter_solvers(ds, set(s1) & set(s2))
        assert lhs == rhs


def test_filter_unknown_solver_rejected():
    rng = random.Random(10)
    ds = make_dataset(rng, n_solvers=2, n_instances=2)
    with pytest.raises(DataError, match="unknown solver"):
        filter_solvers(ds, ["nope"])


def test_build_dataset_rejects_unknown_references():
    meta = InstanceMeta("i1", ProblemKind.DECISION, Fraction(10))
    run = RunRecord("ghost", "i1", Status.COMPLETE, Fraction(1))
    with pytest.raises(DataError, match="unknown solver"):
        build_dataset([meta], {"a": True}, [run])
    run = RunRecord("a", "ghost", Status.COMPLETE, Fraction(1))
    with pytest.raises(DataError, match="unknown instance"):
        build_dataset([meta], {"a": True}, [run])


def test_filter_solvers_ranks_its_own_dataset():
    ds = make_dataset(random.Random(12), n_solvers=6, n_instances=10)
    ranking = ds.quality_ranking
    kept = ds.solver_ids[1:4]
    sub = filter_solvers(ds, kept)
    for iid, groups in ranking.items():
        want = tuple(g for g in (tuple(s for s in group if s in kept) for group in groups) if g)
        assert sub.quality_ranking[iid] == want
    assert ds.quality_ranking is ranking


def test_dataset_equality_and_repr_ignore_the_ranking():
    ds = make_dataset(random.Random(13), n_solvers=4, n_instances=5)
    twin = Dataset(ds.instances, ds.solvers, ds.runs)
    text = repr(ds)
    ds.quality_ranking
    assert "quality_ranking" in vars(ds) and "quality_ranking" not in vars(twin)
    assert ds == twin and twin == ds
    assert repr(ds) == text


KIND_COL, STATUS_COL, TIME_COL, OBJECTIVE_COL, FLAG_COL, TIMEOUT_COL = 2, 3, 4, 5, 6, 7


def _edit(col: int, value, where=lambda row: True, count: int = 1):
    """A fault that sets column ``col`` of ``count`` random rows matching ``where``;
    ``value`` is a string or a function of the row."""

    def fault(rows, rng):
        for row in rng.sample([r for r in rows if where(r)], count):
            row[col] = value(row) if callable(value) else value

    return fault


def _other_kind(row):
    return next(k.value for k in ProblemKind if k.value != row[KIND_COL])


def _recase(rows, rng):
    for row in rng.sample(rows, len(rows) // 3):
        row[KIND_COL] = rng.choice([str.lower, str.title, str.upper])(row[KIND_COL])
        row[STATUS_COL] = rng.choice([str.lower, str.title])(row[STATUS_COL])
        row[FLAG_COL] = rng.choice(["yes", "True", "TRUE"] if row[FLAG_COL] == "1" else ["no", "False"])


def _pad(rows, rng):
    for row in rng.sample(rows, len(rows) // 3):
        row[:] = [f" {cell}\t" for cell in row]


def _insert(rows, rng, row):
    rows.insert(rng.randrange(len(rows) + 1), row)


def _blank_rows(rows, rng):
    for row in ([], [""] * 8, ["  ", " \t"]):
        _insert(rows, rng, row)


def _duplicate_pair(rows, rng):
    _insert(rows, rng, list(rng.choice(rows)))


def _drop_pairs(rows, rng):
    for row in rng.sample(rows, 5):
        rows.remove(row)


def _resize(delta):
    def fault(rows, rng):
        row = rng.choice(rows)
        row[:] = row[:-1] if delta < 0 else row + ["extra"]

    return fault


def _negative_time_and_timeout(rows, rng):
    """On a row of an instance read before: the negative time is reported, then the
    instance is found redeclared."""
    first = {row[1]: row for row in reversed(rows)}
    row = rng.choice([r for r in rows if first[r[1]] is not r])
    row[TIME_COL] = row[TIMEOUT_COL] = "-5.000"


def _incomplete_decision_with_objective(rows, rng):
    row = rng.choice([r for r in rows if _decision(r)])
    row[STATUS_COL], row[OBJECTIVE_COL] = "INCOMPLETE", "2"  # two rules broken at once


def _truncate(rows, rng):
    rows.clear()


def _status_is(*statuses):
    return lambda row: row[STATUS_COL] in statuses


def _decision(row):
    return row[KIND_COL] == "DECISION"


def _solved_optimization(row):
    return row[KIND_COL] != "DECISION" and row[STATUS_COL] != "UNSOLVED"


# one injected fault (or token variation) per entry; every entry changes the table
READER_FAULTS = {
    "clean": lambda rows, rng: None,
    "unknown-kind": _edit(KIND_COL, "PUZZLE"),
    "unknown-status": _edit(STATUS_COL, "FINISHED"),
    "unknown-flag": _edit(FLAG_COL, "maybe"),
    "lower-case-tokens": _recase,
    "padded-cells": _pad,
    "bad-time": _edit(TIME_COL, "soon"),
    "negative-time": _edit(TIME_COL, "-1.5"),
    "negative-time-and-timeout": _negative_time_and_timeout,
    "bad-objective": _edit(OBJECTIVE_COL, "1/0"),
    "non-finite-objective": _edit(OBJECTIVE_COL, "nan"),
    "unsolved-with-objective": _edit(OBJECTIVE_COL, "3", _status_is("UNSOLVED")),
    "solved-without-objective": _edit(OBJECTIVE_COL, "", _solved_optimization),
    "incomplete-on-decision": _edit(STATUS_COL, "INCOMPLETE", _decision),
    "decision-with-objective": _edit(
        OBJECTIVE_COL, "1", lambda row: _decision(row) and row[STATUS_COL] == "COMPLETE"
    ),
    "incomplete-decision-with-objective": _incomplete_decision_with_objective,
    "duplicate-pair": _duplicate_pair,
    "redeclared-kind": _edit(KIND_COL, _other_kind),
    "redeclared-timeout": _edit(TIMEOUT_COL, "999.000"),
    "redeclared-flag": _edit(FLAG_COL, lambda row: "0" if row[FLAG_COL] == "1" else "1"),
    "blank-rows": _blank_rows,
    "short-row": _resize(-1),
    "long-row": _resize(+1),
    "time-over-timeout": _edit(TIME_COL, "1000.5", count=3),
    "missing-pairs": _drop_pairs,
    "empty-id": _edit(0, "  "),
    "bad-timeout": _edit(TIMEOUT_COL, "soon"),
    "zero-timeout": _edit(TIMEOUT_COL, "0"),
    "csv-error": _edit(1, lambda row: row[1] + "\r1"),
    "huge-field": _edit(1, "x" * 140_000),
    "header-only": _truncate,
}


def _outcome(read, text: str, mapping: ColumnMapping, strict: bool):
    """What one reader makes of ``text``: the dataset's repr and warnings, or the error."""
    try:
        ds = read(io.StringIO(text), mapping, strict=strict)
    except DataError as exc:
        return "error", str(exc)
    return "read", repr(ds), ds.warnings


def _assert_reads_as_the_reference(text: str, mapping: ColumnMapping = ColumnMapping()):
    for strict in (True, False):
        assert _outcome(read_table, text, mapping, strict) == _outcome(
            reference_read_table, text, mapping, strict
        )


def _table(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join(",".join(row) for row in [header] + rows) + "\n"


@pytest.mark.parametrize("fault", sorted(READER_FAULTS))
def test_read_table_reads_as_the_reference_reader(fault):
    """Shuffled canonical tables, with one fault injected, give the reference reader's
    ``Dataset`` and warnings in order, or its ``DataError`` text, under both policies.

    An instance's rows then come in any solver order, which the objective
    cross-check must still report in solver order (tie-heavy data has such warnings).
    """
    for seed in range(4):
        for make in (make_dataset, tie_heavy_dataset):
            lines = write_canonical(make(random.Random(seed), 6, 15)).splitlines()
            header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
            rng = random.Random(f"{fault}:{seed}")
            rng.shuffle(rows)
            clean = _table(header, rows)
            READER_FAULTS[fault](rows, rng)
            text = _table(header, rows)
            assert (text == clean) == (fault == "clean")
            _assert_reads_as_the_reference(text)


def test_read_table_reads_synonyms_joins_and_defaults_as_the_reference_reader():
    """Mapped tokens in any case, a synonym given in lower case (which no cell can
    reach), a synonym of no canonical token, a joined id and a default column."""
    mapping = ColumnMapping(
        columns={"solver": ["solver", "variant"]},
        defaults={"participant": " yes "},
        status_map={"OK": "COMPLETE", "ok": "INCOMPLETE", "GONE": "BOGUS"},
        kind_map={"MIN": "MINIMIZE", "max": "MAXIMIZE"},
        join=" + ",
    )
    spelled = {
        "COMPLETE": ["ok", "Ok", "OK", "complete"],
        "INCOMPLETE": ["incomplete", "INCOMPLETE"],
        "UNSOLVED": ["unsolved", "gone", "GONE"],
        "MINIMIZE": ["min", "MIN", "Minimize"],
        "MAXIMIZE": ["MAXIMIZE", "max", "Max"],
        "DECISION": ["decision"],
    }
    for seed in range(4):
        lines = write_canonical(tie_heavy_dataset(random.Random(seed), 5, 12)).splitlines()
        rng = random.Random(seed)
        header = lines[0].split(",") + ["variant"]
        rows = []
        for line in lines[1:]:
            row = line.split(",") + [rng.choice(["", " a ", "b"])]
            row[KIND_COL] = rng.choice(spelled[row[KIND_COL]])
            row[STATUS_COL] = rng.choice(spelled[row[STATUS_COL]])
            rows.append(row)
        _assert_reads_as_the_reference(_table(header, rows), mapping)


def test_empty_input_reads_as_the_reference_reader():
    _assert_reads_as_the_reference("")
    _assert_reads_as_the_reference("\n\n")


def test_quality_ranking_is_every_run_sorted_by_quality_key():
    """Random and tie-heavy grids, runs stored in any order, and a filtered child:
    the ranking equals keying and sorting every run, INCOMPLETE ties included."""
    tied = set()
    for seed in range(6):
        rng = random.Random(seed)
        for ds in (make_dataset(rng, 8, 20), tie_heavy_dataset(rng, 12, 30)):
            runs = list(ds.runs.items())
            rng.shuffle(runs)
            ds = Dataset(ds.instances, ds.solvers, dict(runs))
            want = reference_quality_ranking(ds)
            assert ds.quality_ranking == want
            child = filter_solvers(ds, random_subset(rng, ds.solver_ids))
            assert child.quality_ranking == reference_quality_ranking(child)
            for iid, groups in want.items():
                for group in groups:
                    if len(group) > 1 and ds.run(group[0], iid).status is Status.INCOMPLETE:
                        tied.add(ds.instances[iid].kind)
    assert tied == {ProblemKind.MINIMIZE, ProblemKind.MAXIMIZE}
