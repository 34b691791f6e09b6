import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import portview
from portview import cli, runstore
from portview.cli import ReportConfig, StageError, main, run_pipeline
from portview.mincover import build_coverage, min_cover
from portview.pairscore import borda
from portview.portfolio import PerfRatio, perf
from portview.render import fmt_pct
from portview.runstore import DataError, ingest

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


@pytest.fixture(scope="module")
def ties_path(tmp_path_factory) -> Path:
    """Tie-heavy 8 x 40 data whose minimum cover leaves a solver out under both
    scenarios, so stage ``portfolio_borda`` runs; the demo's cover holds every solver."""
    from randgen import tie_heavy_dataset

    ds = tie_heavy_dataset(random.Random(3), 8, 40)
    for solvers in (ds.participant_ids, ds.solver_ids):
        assert min_cover(build_coverage(ds, solvers)).size < len(solvers)
    path = tmp_path_factory.mktemp("ties") / "ties.csv"
    runstore.save_canonical(ds, path)
    return path


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


@pytest.mark.parametrize("command", ["tradeoff", "report"])
def test_a_huge_threshold_level_renders(demo_path, tmp_path, capsys, command):
    """Levels of 1e25 and more once overflowed the 28-digit ``Decimal`` context."""
    args = [command, "--data", str(demo_path), "--levels", "0.5,1e27,1e30"]
    if command == "report":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "tradeoff":
        assert "1" + "0" * 32 + ".0%" in captured.out


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


def test_an_empty_participant_oracle_scores_its_tied_instances(tmp_path, capsys):
    """No participants: the empty oracle loses i1 and ties i2, which nobody solves."""
    data = tmp_path / "nopart.csv"
    data.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,COMPLETE,1.000,,0,10.000\n"
        "b,i1,DECISION,UNSOLVED,10.000,,0,10.000\n"
        "a,i2,DECISION,UNSOLVED,10.000,,0,10.000\n"
        "b,i2,DECISION,UNSOLVED,10.000,,0,10.000\n",
        encoding="utf-8",
    )
    ds = ingest(data)
    assert perf(ds, [], ds.solver_ids) == PerfRatio(
        Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), tied_unsolved=1
    )
    assert main(["oracle", "--data", str(data), "--format", "csv"]) == 0
    oracle_csv = capsys.readouterr().out
    assert _csv_rows(oracle_csv) == [
        {"dataset": "nopart", "participants": "0", "solvers": "2", "ratio": "0.333333",
         "percent": "33.3%"}
    ]
    out_dir = tmp_path / "bundle"
    assert main(["report", "--data", str(data), "--scenario", "all", "--out", str(out_dir)]) == 0
    assert (out_dir / "oracle.csv").read_text(encoding="utf-8") == oracle_csv


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


@pytest.mark.parametrize("command", ["borda", "mincover", "tradeoff", "shapley"])
def test_a_subcommand_without_participants_fails_at_stage_filter(command, tmp_path, capsys):
    no_participants = tmp_path / "nopart.csv"
    no_participants.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,DECISION,COMPLETE,1.000,,0,10.000\n",
        encoding="utf-8",
    )
    assert main([command, "--data", str(no_participants), "--scenario", "participants"]) == 1
    assert capsys.readouterr().err == (
        "error at stage filter: scenario 'participants' selected but no solver is flagged as one\n"
    )


def test_stage_error_names_borda(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n", encoding="utf-8"
    )
    main(["report", "--data", str(empty), "--out", str(tmp_path / "out"), "--scenario", "all"])
    assert "error at stage borda" in capsys.readouterr().err


def test_report_missing_data_names_stage_ingest(tmp_path, capsys):
    missing, out_dir = tmp_path / "missing.csv", tmp_path / "out"
    assert main(["report", "--data", str(missing), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error at stage ingest: [Errno 2] "), err
    assert not out_dir.exists()


def test_report_out_that_is_a_file_names_stage_write(demo_path, tmp_path, capsys):
    out_file = tmp_path / "out"
    out_file.write_text("keep\n", encoding="utf-8")
    assert main(["report", "--data", str(demo_path), "--out", str(out_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error at stage write: [Errno 17] "), err
    assert out_file.read_text(encoding="utf-8") == "keep\n"


def _fail_second_write(monkeypatch) -> list[str]:
    """Make the second ``Path.write_text`` raise ENOSPC; returns the names written to."""
    real_write_text = Path.write_text
    written = []

    def write_text_failing_second(self, *args, **kwargs):
        written.append(self.name)
        if len(written) == 2:
            raise OSError(28, "No space left on device")
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_text_failing_second)
    return written


def test_report_write_failure_removes_the_files_written(demo_path, tmp_path, capsys, monkeypatch):
    written = _fail_second_write(monkeypatch)
    out_dir = tmp_path / "bundle"
    assert main(["report", "--data", str(demo_path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error at stage write: [Errno 28] No space left on device\n"
    assert written == sorted(EXPECTED_FILES)[:2]
    assert not out_dir.exists()


def test_report_write_failure_removes_only_the_directories_it_made(
    demo_path, tmp_path, capsys, monkeypatch
):
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "other.txt").write_text("keep\n", encoding="utf-8")
    _fail_second_write(monkeypatch)
    assert main(["report", "--data", str(demo_path), "--out", str(kept / "a" / "b")]) == 1
    assert capsys.readouterr().err == "error at stage write: [Errno 28] No space left on device\n"
    assert sorted(p.name for p in kept.iterdir()) == ["other.txt"]


def test_report_write_failure_keeps_an_existing_out_directory(
    demo_path, tmp_path, capsys, monkeypatch
):
    out_dir = tmp_path / "bundle"
    out_dir.mkdir()
    _fail_second_write(monkeypatch)
    assert main(["report", "--data", str(demo_path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error at stage write: [Errno 28] No space left on device\n"
    assert out_dir.is_dir() and list(out_dir.iterdir()) == []


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
    assert (
        "row 2: run ('a', 'i1'): decision instance must not carry an objective, "
        "objective dropped"
    ) in err
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


def _write_random_table(path: Path, n_solvers: int, n_instances: int) -> Path:
    import random

    from portview.runstore import write_canonical
    from randgen import make_dataset

    ds = make_dataset(random.Random(7), n_solvers=n_solvers, n_instances=n_instances)
    path.write_text(write_canonical(ds), encoding="utf-8")
    return path


def _count_coalitions(monkeypatch) -> list[int]:
    from portview import shapley

    evaluated = []

    class CountingScorer(shapley.SubsetScorer):
        def evaluate_mask(self, mask):
            evaluated.append(mask)
            return super().evaluate_mask(mask)

    monkeypatch.setattr(shapley, "SubsetScorer", CountingScorer)
    return evaluated


def test_exact_shapley_over_budget_exits_before_any_coalition(tmp_path, monkeypatch, capsys):
    """20 solvers x 100 instances: a 17-solver cover, an estimate of hours."""
    import time

    data = _write_random_table(tmp_path / "w20.csv", 20, 100)
    evaluated = _count_coalitions(monkeypatch)
    started = time.perf_counter()
    assert main(["shapley", "--data", str(data)]) == 1
    assert time.perf_counter() - started < 5
    assert evaluated == []
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error at stage shapley: shapley_exact: 17 solvers over 100 instances would take an "
        r"estimated \S+ s, over the 60 s exact-mode guard; use --mode sampled\n",
        err,
    ), err


def test_report_over_the_exact_budget_fails_before_the_tradeoff(tmp_path, monkeypatch, capsys):
    """20 solvers x 100 instances: the 17-solver cover's trade-off is never
    searched, since the Shapley guard runs first."""
    import time

    data = _write_random_table(tmp_path / "w20.csv", 20, 100)
    searched = []
    monkeypatch.setattr(cli, "best_subsets", lambda *args: searched.append(args))
    started = time.perf_counter()
    assert main(["report", "--data", str(data), "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - started < 5
    assert searched == []
    err = capsys.readouterr().err
    assert err.startswith("error at stage shapley: shapley_exact: 17 solvers over 100 instances")


def test_sampled_report_completes_at_25_solvers_x_100_instances(tmp_path):
    """The north-star size: a 21-solver cover, whose trade-off curve is exact."""
    import random
    import time

    from portview.runstore import save_canonical
    from randgen import make_dataset

    data = tmp_path / "w25.csv"
    save_canonical(make_dataset(random.Random(7), n_solvers=25, n_instances=100), data)
    started = time.perf_counter()
    args = ["report", "--data", str(data), "--out", str(tmp_path / "out"), "--mode", "sampled",
            "--samples", "1000"]
    assert main(args) == 0
    assert time.perf_counter() - started < 60
    rows = _csv_rows((tmp_path / "out" / "tradeoff.csv").read_text(encoding="utf-8"))
    assert len(rows) == 21


@pytest.mark.parametrize("command", ["tradeoff", "report"])
def test_work_budget_exhausted_exits_1_at_stage_tradeoff(
    tmp_path, monkeypatch, capsys, command
):
    from portview import tradeoff

    monkeypatch.setattr(tradeoff, "WORK_BUDGET", 10_000)
    data = _write_random_table(tmp_path / "w14.csv", 14, 100)
    args = [command, "--data", str(data)]
    if command == "report":
        args += ["--mode", "sampled", "--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error at stage tradeoff: best_subsets: work budget exhausted after \d+ nodes, at size "
        r"\d+ of 13; use a smaller search space\n",
        err,
    ), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["mincover", "report"])
def test_work_budget_exhausted_exits_1_at_stage_mincover(
    tmp_path, monkeypatch, capsys, command
):
    from portview import mincover
    from portview.runstore import save_canonical
    from randgen import tie_heavy_dataset

    monkeypatch.setattr(mincover, "NODE_BUDGET", 100)
    data = tmp_path / "ties30.csv"
    save_canonical(tie_heavy_dataset(random.Random(0), 30, 100), data)
    args = [command, "--data", str(data), "--scenario", "all"]
    if command == "report":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error at stage mincover: min_cover: work budget exhausted after \d+ nodes, with a cover "
        r"of \d+ solvers found; use fewer solvers\n",
        err,
    ), err
    assert not (tmp_path / "out").exists()


def test_report_over_the_exact_budget_fails_at_stage_shapley(tmp_path, monkeypatch, capsys):
    """15 solvers x 100 instances: a 14-solver cover, then the guard."""
    data = _write_random_table(tmp_path / "w15.csv", 15, 100)
    evaluated = _count_coalitions(monkeypatch)
    out_dir = tmp_path / "out"
    assert main(["report", "--data", str(data), "--out", str(out_dir)]) == 1
    assert evaluated == []
    err = capsys.readouterr().err
    assert err.startswith("error at stage shapley: shapley_exact: 14 solvers over 100 instances")
    assert err.endswith("; use --mode sampled\n")
    assert not out_dir.exists()


def test_report_over_the_sampled_budget_fails_at_stage_shapley(
    demo_path, tmp_path, monkeypatch, capsys
):
    from portview import shapley

    monkeypatch.setattr(shapley, "SAMPLED_WORK_BUDGET", 1_000)
    out_dir = tmp_path / "out"
    args = ["report", "--data", str(demo_path), "--out", str(out_dir), "--mode", "sampled"]
    # 2 solvers at 13 units and 5 non-zero scores: 31 units a sample
    assert main(args + ["--samples", "32"]) == 0
    assert main(args + ["--samples", "33"]) == 1
    assert capsys.readouterr().err == (
        "error at stage shapley: shapley_sampled: 33 samples of 2 solvers with 5 non-zero "
        "scores are 1023 work units, over the budget of 1000; use --samples 32 or fewer\n"
    )


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
    for command in ("ingest", "convert"):
        assert main([command, "--data", str(data)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    for args in (["borda"], ["mincover"], ["report", "--out", str(tmp_path / "out")]):
        assert main([*args, "--data", str(data)]) == 1
        assert f"error at stage ingest: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_bad_delimiter_is_a_validation_error(delimiter, demo_path, capsys):
    assert main(["ingest", "--data", str(demo_path), "--delimiter", delimiter]) == 1
    assert f"error: delimiter {delimiter!r} is not a single character" in capsys.readouterr().err


NON_FINITE = ["inf", "-Infinity", "nan", "sNaN"]


def _non_finite_objective_table(tmp_path, text: str) -> Path:
    data = tmp_path / "data.csv"
    data.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        "a,i1,MINIMIZE,COMPLETE,1.000,3,1,10.000\n"
        f"b,i1,MINIMIZE,INCOMPLETE,2.000,{text},1,10.000\n",
        encoding="utf-8",
    )
    return data


@pytest.mark.parametrize("text", NON_FINITE)
def test_non_finite_objective_fails_ingest_naming_the_row(text, tmp_path, capsys):
    data = _non_finite_objective_table(tmp_path, text)
    assert main(["ingest", "--data", str(data)]) == 1
    assert f"error: row 3: non-finite objective {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("text", NON_FINITE)
def test_non_finite_objective_is_dropped_by_convert(text, tmp_path, capsys):
    data = _non_finite_objective_table(tmp_path, text)
    out = tmp_path / "canonical.csv"
    assert main(["convert", "--data", str(data), "--out", str(out)]) == 0
    assert f"row 3: non-finite objective {text!r}, dropped" in capsys.readouterr().err
    assert ingest(out).run("b", "i1").objective is None


@pytest.mark.parametrize("text", NON_FINITE)
@pytest.mark.parametrize(
    "command, flag, what",
    [("mincover", "--epsilon=", "epsilon"), ("report", "--epsilon=", "epsilon"),
     ("tradeoff", "--levels=0.5,", "level")],
    ids=["mincover", "report", "tradeoff"],
)
def test_non_finite_number_flag_is_a_validation_error(
    command, flag, what, text, demo_path, tmp_path, capsys
):
    # "--flag=X" keeps argparse from reading "-Infinity" as a flag
    args = [command, "--data", str(demo_path), flag + text]
    if command == "report":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert f"error: non-finite {what} {text!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Exact values whose integer numerator would need more than 4,300 digits,
# Python's limit for printing an int; the last overflows a Decimal times 1000.
OVERSIZED = ["1e5000", "-1" + "0" * 4300, "1e999999"]


def _row_table(tmp_path, time="5", objective="7", timeout="10") -> Path:
    data = tmp_path / "data.csv"
    data.write_text(
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        f"a,i1,MINIMIZE,COMPLETE,{time},{objective},1,{timeout}\n",
        encoding="utf-8",
    )
    return data


@pytest.mark.parametrize("text", OVERSIZED, ids=["1e5000", "4301-digits", "1e999999"])
@pytest.mark.parametrize("column", ["time", "objective", "timeout"])
@pytest.mark.parametrize("command", ["ingest", "report"])
def test_oversized_number_fails_a_strict_read_naming_the_row(
    command, column, text, tmp_path, capsys
):
    args = [command, "--data", str(_row_table(tmp_path, **{column: text}))]
    if command == "report":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    # the message quotes at most the cell's first 40 characters
    quoted = repr(text if len(text) <= 40 else text[:40] + "…")
    assert err.startswith("error") and f": row 2: {column} {quoted} needs more than 4300 digits" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "column, warnings, status",
    [
        ("time", ["row 2: time '1e5000' needs more than 4300 digits, recorded as UNSOLVED"],
         "UNSOLVED"),
        ("objective", [
            "row 2: objective '1e5000' needs more than 4300 digits, dropped",
            "row 2: run ('a', 'i1'): solved run on an optimization instance requires an "
            "objective, recorded as UNSOLVED",
        ], "UNSOLVED"),
    ],
)
def test_oversized_number_is_repaired_by_convert(column, warnings, status, tmp_path, capsys):
    out = tmp_path / "canonical.csv"
    data = _row_table(tmp_path, **{column: "1e5000"})
    assert main(["convert", "--data", str(data), "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in warnings]
    run = ingest(out).run("a", "i1")
    assert (run.status.value, run.objective) == (status, None)


def test_oversized_timeout_fails_convert(tmp_path, capsys):
    data = _row_table(tmp_path, timeout="1e5000")
    assert main(["convert", "--data", str(data)]) == 1
    assert "error: row 2: timeout '1e5000' needs more than 4300 digits" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "command, flag, what",
    [("mincover", "--epsilon=", "epsilon"), ("report", "--epsilon=", "epsilon"),
     ("tradeoff", "--levels=0.5,", "level")],
    ids=["mincover", "report", "tradeoff"],
)
def test_oversized_number_flag_is_a_validation_error(
    command, flag, what, demo_path, tmp_path, capsys
):
    args = [command, "--data", str(demo_path), flag + "1e9999999"]
    if command == "report":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert f"error: {what} '1e9999999' needs more than 4300 digits" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "out").exists()


# Cells past the digit bound: a p/q part over 4,300 digits, and a 100,000-digit decimal
# (the csv module refuses longer fields).
HUGE_CELLS = ["1" * 4301 + "/3", "1/" + "7" * 4301, "9" * 10**5]
HUGE_IDS = ["p-4301", "q-4301", "100k-digits"]


def _quoted_prefix(text: str) -> str:
    return repr(text[:40] + "…")


@pytest.mark.parametrize("text", HUGE_CELLS, ids=HUGE_IDS)
def test_huge_objective_fails_ingest_with_a_short_line(text, tmp_path, capsys):
    data = _non_finite_objective_table(tmp_path, text)
    assert main(["ingest", "--data", str(data)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: row 3: objective {_quoted_prefix(text)} needs more than 4300 digits"
    ]


@pytest.mark.parametrize("text", HUGE_CELLS, ids=HUGE_IDS)
def test_huge_objective_is_dropped_by_convert_with_short_lines(text, tmp_path, capsys):
    data = _non_finite_objective_table(tmp_path, text)
    assert main(["convert", "--data", str(data), "--out", str(tmp_path / "out.csv")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: row 3: objective {_quoted_prefix(text)} needs more than 4300 digits, dropped",
        "warning: row 3: run ('b', 'i1'): solved run on an optimization instance requires "
        "an objective, recorded as UNSOLVED",
    ]


@pytest.mark.parametrize("text", HUGE_CELLS, ids=HUGE_IDS)
def test_huge_number_flag_is_a_validation_error_with_a_short_line(text, demo_path, capsys):
    assert main(["mincover", "--data", str(demo_path), "--epsilon", text]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: epsilon {_quoted_prefix(text)} needs more than 4300 digits"
    ]


def _bundle_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _report_child(
    data: Path, tmp_path: Path, *flags: str, mode: str = "exact", env: dict | None = None
) -> tuple[subprocess.CompletedProcess, str]:
    """Run ``portview [flags] report --mode MODE`` in a child, with ``env`` added to its
    environment; return it and its bundle digest."""
    shutil.copyfile(data, tmp_path / "demo.csv")
    env = {
        **os.environ, "PYTHONPATH": str(Path(portview.__file__).resolve().parent.parent),
        **(env or {}),
    }
    shutil.rmtree(tmp_path / "bundle", ignore_errors=True)
    done = subprocess.run(
        [sys.executable, "-m", "portview.cli", *flags, "report", "--data", "demo.csv",
         "--out", "bundle", "--mode", mode],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done, _bundle_digest(tmp_path / "bundle")


def test_verbose_report_times_stages_on_stderr_only(ties_path, tmp_path):
    quiet, quiet_digest = _report_child(ties_path, tmp_path)
    loud, loud_digest = _report_child(ties_path, tmp_path, "-v")
    assert loud_digest == quiet_digest
    assert loud.stdout == quiet.stdout
    assert "stage" not in quiet.stderr
    stages = re.findall(r"^stage (\w+): \d+\.\d{3} s$", loud.stderr, re.MULTILINE)
    assert stages == [
        "ingest", "filter", "borda", "oracle", "mincover",
        "shapley", "tradeoff", "thresholds", "portfolio_borda", "serialize", "write",
    ]


# Each analysis subcommand runs report's helpers, so it logs their stages, in report's
# order, on data whose cover leaves a solver out; then it writes its output.
SUBCOMMAND_STAGES = {
    "borda": ["ingest", "filter", "borda", "write"],
    "oracle": ["ingest", "oracle", "write"],
    "mincover": ["ingest", "filter", "mincover", "write"],
    "tradeoff --space cover": ["ingest", "filter", "mincover", "tradeoff", "thresholds", "write"],
    "tradeoff --space full": ["ingest", "filter", "tradeoff", "thresholds", "write"],
    "shapley --portfolio cover": [
        "ingest", "filter", "mincover", "shapley", "borda", "portfolio_borda", "write",
    ],
    # the portfolio is every scenario solver, so its Borda is the first one
    "shapley --portfolio full": ["ingest", "filter", "shapley", "borda", "write"],
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_STAGES))
def test_verbose_subcommand_times_its_stages_on_stderr(command, ties_path, capsys):
    env = {**os.environ, "PYTHONPATH": str(Path(portview.__file__).resolve().parent.parent)}
    loud = subprocess.run(
        [sys.executable, "-m", "portview.cli", "-v", *command.split(), "--data", str(ties_path)],
        env=env, capture_output=True, text=True,
    )
    assert loud.returncode == 0, loud.stderr
    assert main([*command.split(), "--data", str(ties_path)]) == 0
    assert loud.stdout == capsys.readouterr().out
    stages = re.findall(r"^stage (\w+): \d+\.\d{3} s$", loud.stderr, re.MULTILINE)
    assert stages == SUBCOMMAND_STAGES[command]


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_report_bundles_are_identical_across_hash_seeds(demo_path, tmp_path, mode):
    """Criterion 7: string hashing must not reach any ordering in the bundle."""
    from portview.runstore import save_canonical
    from randgen import tie_heavy_dataset

    ties = tmp_path / "ties.csv"
    save_canonical(tie_heavy_dataset(random.Random(5), 8, 40), ties)
    for data in (demo_path, ties):
        digests = {
            _report_child(data, tmp_path, mode=mode, env={"PYTHONHASHSEED": seed})[1]
            for seed in ("0", "1")
        }
        assert len(digests) == 1, data.name


def test_verbose_report_logs_borda_pair_counts(ties_path, tmp_path):
    quiet, quiet_digest = _report_child(ties_path, tmp_path)
    loud, loud_digest = _report_child(ties_path, tmp_path, "-v")
    assert loud_digest == quiet_digest
    assert "borda:" not in quiet.stderr
    counts = re.findall(
        r"^borda: (\d+) solvers x (\d+) instances, (\d+) time-split pairs of (\d+)$",
        loud.stderr, re.MULTILINE,
    )
    # the whole field, then the core portfolio
    assert len(counts) == 2
    for n, m, split, pairs in (map(int, line) for line in counts):
        assert 0 <= split <= pairs == n * (n - 1) * m


def test_portfolio_borda_failure_names_its_stage(ties_path, monkeypatch):
    calls = []

    def fail_second_call(ds):
        calls.append(ds.solver_ids)
        if len(calls) == 2:
            raise DataError("portfolio borda failed")
        return borda(ds)

    monkeypatch.setattr(cli, "borda", fail_second_call)
    with pytest.raises(StageError, match="portfolio borda failed") as caught:
        run_pipeline(ReportConfig(data=str(ties_path), out_dir="unused"))
    assert caught.value.stage == "portfolio_borda"
    assert len(calls) == 2


def test_serialize_failure_names_its_stage(demo_path, monkeypatch):
    def fail(value):
        raise DataError("cannot render")

    monkeypatch.setattr(cli, "frac_str", fail)
    with pytest.raises(StageError, match="cannot render") as caught:
        run_pipeline(ReportConfig(data=str(demo_path), out_dir="unused", formats=("json",)))
    assert caught.value.stage == "serialize"


@pytest.mark.parametrize(
    "args, copies",
    [(["report", "--scenario", "all"], 0),
     (["shapley", "--scenario", "all", "--portfolio", "full"], 0),
     # two of the three solvers participate, and both are in their minimum cover,
     # so the cover's Borda is the participants' one
     (["report"], 1)],
    ids=["report-all", "shapley-all-full", "report-participants"],
)
def test_borda_copies_the_dataset_only_to_drop_solvers(
    args, copies, demo_path, tmp_path, monkeypatch
):
    kept = []

    def counted(ds, keep):
        kept.append(tuple(keep))
        return runstore.filter_solvers(ds, keep)

    monkeypatch.setattr(cli, "filter_solvers", counted)
    if args[0] == "report":
        args = args + ["--out", str(tmp_path / "out")]
    assert main([*args, "--data", str(demo_path)]) == 0
    assert kept == [("alpha", "beta")] * copies


@pytest.mark.parametrize(
    "args", [["shapley", "--portfolio", "full"], ["report"]], ids=["shapley-full", "report"]
)
def test_a_portfolio_of_every_scenario_solver_reuses_the_first_borda(
    args, demo_path, tmp_path, monkeypatch
):
    calls = []

    def counted(ds):
        calls.append(ds.solver_ids)
        return borda(ds)

    monkeypatch.setattr(cli, "borda", counted)
    if args[0] == "report":
        args = args + ["--out", str(tmp_path / "out")]
    assert main([*args, "--data", str(demo_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize(
    "command", ["borda", "oracle", "mincover", "tradeoff", "shapley", "ingest", "convert"]
)
def test_an_unwritable_out_names_stage_write(command, demo_path, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    assert main([command, "--data", str(demo_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error at stage write: [Errno 2] "), err
    assert not out.parent.exists()


NON_ASCII_TABLE = (
    "solver,instance,kind,status,time,objective,participant,timeout\n"
    "solveur-é,i1,DECISION,COMPLETE,1,,1,10\n"
    "求解器,i1,DECISION,COMPLETE,2,,1,10\n"
)


def _encoding_child(tmp_path: Path, encoding: str, *argv: str) -> subprocess.CompletedProcess:
    """``portview ARGV`` in a child, in ``tmp_path`` beside ``t.csv`` (``NON_ASCII_TABLE``),
    whose stdout and stderr encode with ``encoding``; its output is bytes."""
    (tmp_path / "t.csv").write_text(NON_ASCII_TABLE, encoding="utf-8")
    env = {
        **os.environ, "PYTHONPATH": str(Path(portview.__file__).resolve().parent.parent),
        "PYTHONIOENCODING": encoding,
    }
    return subprocess.run([sys.executable, "-m", "portview.cli", *argv, "--data", "t.csv"],
                          cwd=tmp_path, env=env, capture_output=True)


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize("command", ["borda", "ingest"])
def test_a_stdout_that_cannot_encode_the_output_fails_at_stage_write(command, encoding, tmp_path):
    refused = _encoding_child(tmp_path, encoding, command)
    assert (refused.returncode, refused.stdout) == (1, b""), refused.stderr
    assert re.fullmatch(
        r"error at stage write: stdout cannot encode the output \('[-\w]+' codec can't encode "
        r".*\); use --out FILE, which writes UTF-8\n",
        refused.stderr.decode("ascii"),
    ), refused.stderr
    # the data is never escaped: --out writes the bytes that a UTF-8 stdout shows
    utf8 = _encoding_child(tmp_path, "utf-8", command)
    assert utf8.returncode == 0 and "求解器".encode() in utf8.stdout
    written = _encoding_child(tmp_path, encoding, command, "--out", "out.txt")
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert (tmp_path / "out.txt").read_bytes() == utf8.stdout


@pytest.mark.parametrize("encoding, shown", [
    ("ascii", r"r\xe9pertoire-\u6c42\u89e3\u5668"),
    ("latin-1", r"répertoire-\u6c42\u89e3\u5668"),
    ("utf-8", "répertoire-求解器"),
])
def test_report_escapes_what_stdout_cannot_encode_in_its_summary(encoding, shown, tmp_path):
    done = _encoding_child(tmp_path, encoding, "report", "--out", "répertoire-求解器")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == f"wrote 8 files to {shown}\n".encode(encoding)
    assert len(list((tmp_path / "répertoire-求解器").iterdir())) == 8


def test_report_parses_each_cell_text_once_and_keys_each_run_once(tmp_path, monkeypatch):
    from randgen import tie_heavy_dataset

    data = tmp_path / "ties.csv"
    runstore.save_canonical(tie_heavy_dataset(random.Random(5), n_solvers=8, n_instances=40), data)
    rows = list(csv.DictReader(io.StringIO(data.read_text(encoding="utf-8"))))
    calls = {"quality_key": 0, "parse_duration": 0, "parse_rational": 0}

    def counted(name):
        original = getattr(runstore, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(runstore, name, counted(name))
    run_pipeline(ReportConfig(data=str(data), out_dir="unused"))
    # the ranking keys INCOMPLETE runs alone: the other statuses' keys are constants
    assert calls == {
        "quality_key": sum(r["status"] == "INCOMPLETE" for r in rows),
        "parse_duration": len({r["time"] for r in rows} | {r["timeout"] for r in rows}),
        "parse_rational": len({r["objective"] for r in rows} - {""}),
    }


@pytest.mark.parametrize(
    "levels, message",
    [("", "no threshold levels given"), ("0.9,0.8", "threshold levels must be strictly ascending"),
     ("0.5,1/2", "threshold levels must be strictly ascending"),
     ("0.5,0.5", "threshold levels must be strictly ascending")],
    ids=["empty", "descending", "equal", "repeated"],
)
@pytest.mark.parametrize("command", ["tradeoff", "report"])
def test_bad_levels_are_validation_errors(command, levels, message, demo_path, tmp_path, capsys):
    args = [command, "--data", str(demo_path), "--levels", levels]
    if command == "report":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_tradeoff_checks_its_levels_before_the_search(demo_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "best_subsets", lambda *args: calls.append(args))
    assert main(["tradeoff", "--data", str(demo_path), "--levels", "0.9,0.8"]) == 1
    assert calls == []
    assert capsys.readouterr().err == "error: threshold levels must be strictly ascending\n"


def test_report_thresholds_table_has_one_row_per_sidecar_level(demo_path):
    levels = (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(1))
    files = run_pipeline(ReportConfig(str(demo_path), "unused", levels=levels))
    rows = list(csv.reader(io.StringIO(files["thresholds.csv"])))[1:]
    sidecar = json.loads(files["exact.json"])["tradeoff"]["thresholds"]
    levels_reached = sorted((Fraction(level), k) for level, k in sidecar.items())
    assert [level for level, _ in levels_reached] == list(levels)
    assert rows == [[fmt_pct(level), "unreached" if k is None else str(k)]
                    for level, k in levels_reached]


def test_report_rejects_an_unknown_format(demo_path, tmp_path, capsys):
    args = ["report", "--data", str(demo_path), "--out", str(tmp_path / "out")]
    assert main(args + ["--formats", "csv,pdf"]) == 1
    assert capsys.readouterr().err == "error: unknown output format 'pdf'\n"
    assert not (tmp_path / "out").exists()


def test_report_config_rejects_an_unknown_format(demo_path, tmp_path):
    with pytest.raises(DataError, match=r"^unknown output format 'pdf'$"):
        ReportConfig(str(demo_path), str(tmp_path / "out"), formats=("pdf",))


@pytest.mark.parametrize("option, known", [("scenario", cli.SCENARIOS), ("mode", cli.MODES)])
def test_report_config_rejects_an_unknown_scenario_or_mode(option, known, demo_path):
    with pytest.raises(DataError, match=rf"^unknown {option} 'bogus'$"):
        ReportConfig(str(demo_path), "unused", **{option: "bogus"})
    for value in known:
        assert getattr(ReportConfig(str(demo_path), "unused", **{option: value}), option) == value


@pytest.mark.parametrize("option", ["scenario", "mode"])
def test_run_pipeline_on_an_unknown_scenario_or_mode_reads_nothing(option, demo_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "ingest", calls.append)
    with pytest.raises(DataError, match=rf"^unknown {option} 'bogus'$"):
        run_pipeline(ReportConfig(str(demo_path), "unused", **{option: "bogus"}))
    assert calls == []


@pytest.mark.parametrize("command", ["mincover", "report"])
def test_cap_zero_is_a_validation_error(command, demo_path, tmp_path, capsys):
    args = [command, "--data", str(demo_path), "--cap", "0"]
    if command == "report":
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error at stage mincover: min_cover: cap must be at least 1\n"
    assert not (tmp_path / "out").exists()


def _ingest_text(tmp_path, capsys, text: str) -> tuple[int, str]:
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    return main(["ingest", "--data", str(data)]), capsys.readouterr().err


@pytest.mark.parametrize("objective", ["1/0", "x/2"])
def test_unparseable_objective_fails_ingest_naming_the_row(objective, tmp_path, capsys):
    code, err = _ingest_text(
        tmp_path, capsys,
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        f"a,i1,MINIMIZE,COMPLETE,1.000,{objective},1,10.000\n",
    )
    assert (code, err) == (1, f"error: row 2: unparseable objective {objective!r}\n")


def test_an_empty_file_is_a_validation_error(tmp_path, capsys):
    assert _ingest_text(tmp_path, capsys, "") == (1, "error: empty input: missing header row\n")


def test_a_blank_line_is_skipped_and_counted_in_row_numbers(tmp_path, capsys):
    header = "solver,instance,kind,status,time,objective,participant,timeout\n"
    row = "a,i1,DECISION,COMPLETE,1.000,,1,10.000\n"
    bad_row = "b,i1,DECISION,COMPLETE,-1,,1,10.000\n"
    code, err = _ingest_text(tmp_path, capsys, header + row + "\n" + bad_row)
    assert (code, err) == (1, "error: row 4: run ('b', 'i1'): negative time\n")
    assert _ingest_text(tmp_path, capsys, header + "\n" + row) == (0, "")


def test_an_empty_solver_id_is_a_validation_error(tmp_path, capsys):
    code, err = _ingest_text(
        tmp_path, capsys,
        "solver,instance,kind,status,time,objective,participant,timeout\n"
        ",i1,DECISION,COMPLETE,1.000,,1,10.000\n",
    )
    assert (code, err) == (1, "error: row 2: empty solver or instance id\n")


def test_an_unexpected_exception_exits_2(demo_path, tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise RuntimeError("stage broke")

    monkeypatch.setattr(cli, "borda", fail)
    assert main(["report", "--data", str(demo_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "internal error: stage broke\n"
    assert not (tmp_path / "out").exists()
