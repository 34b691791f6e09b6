import csv
import io
import json

import pytest

from portview.cli import main
from portview.runstore import ingest

EXPECTED_FILES = {
    "borda.csv",
    "oracle.csv",
    "mincover.csv",
    "tradeoff.csv",
    "thresholds.csv",
    "shapley.csv",
    "report.txt",
    "exact.json",
}


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def test_ingest_round_trip(demo_path, capsys):
    assert main(["ingest", "--data", str(demo_path)]) == 0
    out = capsys.readouterr().out
    assert out == demo_path.read_text(encoding="utf-8")


def test_borda_csv_matches_expected(demo_path, demo_expected, capsys):
    assert main(["borda", "--data", str(demo_path), "--scenario", "all", "--format", "csv"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    by_solver = {r["solver"]: r for r in rows}
    assert by_solver["gamma"]["rank"] == "1"
    assert by_solver["beta"]["total"] == "4.25"
    assert by_solver["alpha"]["average"] == "0.9375"
    assert [r["solver"] for r in rows] == demo_expected["borda_all"]["ranking"]


def test_oracle_ratio(demo_path, capsys):
    assert main(["oracle", "--data", str(demo_path), "--format", "csv"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert rows[0]["ratio"] == "0.333333"
    assert rows[0]["participants"] == "2"
    assert rows[0]["solvers"] == "3"


def test_mincover_output(demo_path, capsys):
    assert main(["mincover", "--data", str(demo_path), "--scenario", "all"]) == 0
    out = capsys.readouterr().out
    assert "minimum portfolio size: 3" in out
    assert "unique optimum: yes" in out
    assert "non-participant" in out


def test_tradeoff_output(demo_path, demo_expected, capsys):
    assert main(
        ["tradeoff", "--data", str(demo_path), "--scenario", "all", "--format", "csv"]
    ) == 0
    out = capsys.readouterr().out
    tables = out.split("level,smallest_k")
    rows = _csv_rows(tables[0])
    expected = demo_expected["tradeoff_all"]
    assert [r["subset"] for r in rows] == [" ".join(e["subset"]) for e in expected]
    assert rows[0]["percent"] == "33.3%"
    assert rows[2]["ratio"] == "1"


def test_shapley_output(demo_path, capsys):
    assert main(
        ["shapley", "--data", str(demo_path), "--scenario", "participants", "--format", "csv"]
    ) == 0
    rows = _csv_rows(capsys.readouterr().out)
    by_solver = {r["solver"]: r for r in rows}
    # 29/66 and 37/66 to six significant digits
    assert by_solver["alpha"]["attribution"] == "0.439394"
    assert by_solver["beta"]["attribution"] == "0.560606"


def test_report_bundle(demo_path, tmp_path, demo_expected):
    out_dir = tmp_path / "bundle"
    assert main(["report", "--data", str(demo_path), "--out", str(out_dir)]) == 0
    assert {p.name for p in out_dir.iterdir()} == EXPECTED_FILES

    sidecar = json.loads((out_dir / "exact.json").read_text(encoding="utf-8"))
    assert sidecar["oracle"]["value"] == demo_expected["oracle_ratio"]["value"]
    assert sidecar["mincover"]["optima"] == demo_expected["mincover_participants"]["optima"]
    assert sidecar["attribution"]["values"] == demo_expected["shapley_participants"]
    got_curve = [
        {"k": e["k"], "subset": e["subset"], "value": e["value"]}
        for e in sidecar["tradeoff"]["entries"]
    ]
    assert got_curve == demo_expected["tradeoff_participants"]


def test_report_formats_flag(demo_path, tmp_path):
    out_dir = tmp_path / "textonly"
    assert main(
        ["report", "--data", str(demo_path), "--out", str(out_dir), "--formats", "text"]
    ) == 0
    assert {p.name for p in out_dir.iterdir()} == {"report.txt"}


def test_report_stage_error_at_borda(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n", encoding="utf-8"
    )
    code = main(
        ["report", "--data", str(empty), "--out", str(tmp_path / "out"), "--scenario", "all"]
    )
    assert code == 1
    assert not (tmp_path / "out").exists()


def test_report_stage_error_at_filter(tmp_path, capsys):
    no_participants = tmp_path / "nopart.csv"
    no_participants.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,COMPLETE,1.000,,0,10.000\n",
        encoding="utf-8",
    )
    code = main(
        ["report", "--data", str(no_participants), "--out", str(tmp_path / "out")]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "error at stage filter" in captured.err


def test_stage_error_names_borda(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n", encoding="utf-8"
    )
    main(["report", "--data", str(empty), "--out", str(tmp_path / "out"), "--scenario", "all"])
    assert "error at stage borda" in capsys.readouterr().err


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,COMPLETE,-1,,1,10.000\n",
        encoding="utf-8",
    )
    assert main(["borda", "--data", str(bad)]) == 1
    assert "row 2" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["borda", "--no-such-flag"]) == 1
    assert main(["not-a-command"]) == 1


def test_missing_file_is_validation_error(tmp_path, capsys):
    assert main(["borda", "--data", str(tmp_path / "nope.csv")]) == 1


def test_convert_cli(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,COMPLETE,1.000,7,1,10.000\n",
        encoding="utf-8",
    )
    out = tmp_path / "canonical.csv"
    assert main(["convert", "--data", str(raw), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "objective on a decision instance" in err
    ds = ingest(out)
    assert ds.run("a", "i1").objective is None


def test_out_flag_writes_file(demo_path, tmp_path):
    target = tmp_path / "ranking.csv"
    assert main(
        ["borda", "--data", str(demo_path), "--format", "csv", "--out", str(target)]
    ) == 0
    assert target.exists()
    assert target.read_text(encoding="utf-8").startswith("solver,total,average,rank")


def test_report_exact_sidecar_at_realistic_size(tmp_path):
    import random
    from decimal import Decimal
    from fractions import Fraction

    from portview.runstore import write_canonical
    from portview.shapley import shapley_exact
    from randgen import make_dataset

    data = tmp_path / "m100.csv"
    data.write_text(
        write_canonical(make_dataset(random.Random(7), n_solvers=7, n_instances=100)),
        encoding="utf-8",
    )
    out_dir = tmp_path / "bundle"
    assert main(
        ["report", "--data", str(data), "--scenario", "all", "--out", str(out_dir)]
    ) == 0
    sidecar = json.loads((out_dir / "exact.json").read_text(encoding="utf-8"))
    ds = ingest(data)
    core = tuple(sidecar["mincover"]["optima"][0])
    expected = shapley_exact(ds, core, ds.solver_ids).values
    got = {}
    for sid, text in sidecar["attribution"]["values"].items():
        numerator, denominator = text.split("/")
        got[sid] = Fraction(int(Decimal(numerator)), int(Decimal(denominator)))
    assert got == expected
    assert max(len(text) for text in sidecar["attribution"]["values"].values()) > 4300


HEADER = "solver,instance,kind,status,time,objective,participant,timeout"
UNREADABLE = {
    "not-utf8": (b"solver,instance\n\xff\xfe\n", "input is not UTF-8 text"),
    "huge-field": (
        f"{HEADER}\na,{'x' * 140_000},DECISION,COMPLETE,1,,1,10\n".encode(),
        "row 2: field larger than field limit",
    ),
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_table_is_a_validation_error(name, tmp_path, capsys):
    content, message = UNREADABLE[name]
    data = tmp_path / "data.csv"
    data.write_bytes(content)
    for command in ("ingest", "convert", "borda", "mincover"):
        assert main([command, "--data", str(data)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert main(["report", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
    assert f"error at stage ingest: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_bad_delimiter_is_a_validation_error(delimiter, demo_path, capsys):
    assert main(["ingest", "--data", str(demo_path), "--delimiter", delimiter]) == 1
    assert f"error: delimiter {delimiter!r} is not a single character" in capsys.readouterr().err
