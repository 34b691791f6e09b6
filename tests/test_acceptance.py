"""Acceptance suite: one test per release criterion, each printing a PASS line.

Criteria 1-7 are self-contained (randomized properties with seeded generators
plus frozen hand-computed fixtures). Criterion 8 needs converted official
competition data and is skipped unless PORTVIEW_OFFICIAL_DATA points to a
directory with canonical files named <year>-<track>.csv.
"""

import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from portview.cli import main
from portview.mincover import build_coverage, min_cover
from portview.pairscore import Comparable, borda, score_ordered
from portview.portfolio import perf
from portview.runstore import (
    Dataset,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    build_dataset,
    ingest,
)
from portview.shapley import shapley_exact, shapley_sampled
from portview.tradeoff import best_subsets
from randgen import make_dataset, random_subset
from reference import reference_perf

from test_mincover import exhaustive_min_covers
from test_shapley import definitional_shapley, worked_example_dataset
from test_tradeoff import brute_force_curve


def _passline(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def _solvable_dataset(rng, **kwargs) -> Dataset:
    """Random dataset whose full portfolio solves at least one instance."""
    while True:
        ds = make_dataset(rng, **kwargs)
        if any(r.status is not Status.UNSOLVED for r in ds.runs.values()):
            return ds


def _random_comparable(rng, kind):
    roll = rng.random()
    t = Fraction(rng.randint(0, 5000), 1000)
    if roll < 0.35:
        obj = Fraction(rng.randint(-8, 8)) if kind.is_optimization else None
        return Comparable(Status.COMPLETE, t, obj, kind)
    if roll < 0.7 and kind.is_optimization:
        return Comparable(Status.INCOMPLETE, t, Fraction(rng.randint(-8, 8)), kind)
    return Comparable(Status.UNSOLVED, t, None, kind)


def test_criterion_1_scoring_invariants():
    started = time.perf_counter()
    rng = random.Random(101)
    kinds = (ProblemKind.DECISION, ProblemKind.MINIMIZE, ProblemKind.MAXIMIZE)
    for _ in range(10_000):
        kind = rng.choice(kinds)
        a = _random_comparable(rng, kind)
        b = _random_comparable(rng, kind)
        sa, sb = score_ordered(a, b)
        assert sa + sb == 1
        assert 0 <= sa <= 1 and 0 <= sb <= 1
        if a.status is Status.UNSOLVED and b.status is Status.UNSOLVED:
            assert (sa, sb) == (Fraction(1), Fraction(0))
            assert score_ordered(b, a) == (Fraction(1), Fraction(0))

    dec = ProblemKind.DECISION
    opt = ProblemKind.MINIMIZE
    c = lambda st, t, obj=None, kind=dec: Comparable(st, Fraction(t), obj, kind)
    assert score_ordered(c(Status.COMPLETE, 10), c(Status.UNSOLVED, 60)) == (1, 0)
    assert score_ordered(c(Status.COMPLETE, 10), c(Status.COMPLETE, 30)) == (
        Fraction(3, 4),
        Fraction(1, 4),
    )
    assert score_ordered(c(Status.UNSOLVED, 60), c(Status.UNSOLVED, 60)) == (1, 0)
    assert score_ordered(
        c(Status.INCOMPLETE, 5, Fraction(10), opt), c(Status.INCOMPLETE, 5, Fraction(12), opt)
    ) == (1, 0)
    assert score_ordered(
        c(Status.COMPLETE, 20, Fraction(4), opt), c(Status.COMPLETE, 60, Fraction(4), opt)
    ) == (Fraction(3, 4), Fraction(1, 4))
    _passline(1, "pairwise scoring invariants on 10^4 random pairs", started, 1.0)


def test_criterion_2_borda_fixture():
    started = time.perf_counter()
    meta = [InstanceMeta("i1", ProblemKind.DECISION, Fraction(100))]
    runs = [
        RunRecord("a", "i1", Status.COMPLETE, Fraction(10)),
        RunRecord("b", "i1", Status.COMPLETE, Fraction(30)),
        RunRecord("c", "i1", Status.UNSOLVED, Fraction(100)),
    ]
    ds = build_dataset(meta, {"a": True, "b": True, "c": True}, runs)
    matrix = borda(ds)
    assert matrix.totals == {
        "a": Fraction(7, 4),
        "b": Fraction(5, 4),
        "c": Fraction(0),
    }

    both_fail = build_dataset(
        meta,
        {"a": True, "b": True},
        [
            RunRecord("a", "i1", Status.UNSOLVED, Fraction(100)),
            RunRecord("b", "i1", Status.UNSOLVED, Fraction(100)),
        ],
    )
    assert borda(both_fail).totals == {"a": Fraction(1), "b": Fraction(1)}
    _passline(2, "Borda fixture totals (1.75, 1.25, 0) and both-fail (1, 1)", started, 1.0)


def test_criterion_3_vbs_monotonicity():
    started = time.perf_counter()
    rng = random.Random(303)
    chain_pairs = 0
    for _ in range(200):
        ds = _solvable_dataset(rng, max_solvers=6, max_instances=10)
        baseline = ds.solver_ids
        assert perf(ds, baseline, baseline).value == 1
        for _ in range(2):
            small = random_subset(rng, baseline)
            grow = tuple(sorted(set(small) | set(random_subset(rng, baseline))))
            assert perf(ds, small, baseline).value <= perf(ds, grow, baseline).value
            chain_pairs += 1
    assert chain_pairs >= 100
    _passline(3, f"VBS monotonicity over 200 datasets, {chain_pairs} chain pairs", started, 10.0)


def test_criterion_4_set_cover_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(404)
    for _ in range(200):
        n = rng.randint(1, 12)
        ds = _solvable_dataset(rng, n_solvers=n, max_instances=10)
        cov = build_coverage(ds)
        solution = min_cover(cov)
        size, optima = exhaustive_min_covers(cov.best_sets, cov.universe)
        assert solution.size == size
        assert list(solution.portfolios) == optima
        for portfolio in solution.portfolios:
            assert perf(ds, portfolio, ds.solver_ids).value == 1
    _passline(4, "minimum covers match exhaustive search on 200 datasets", started, 60.0)


def test_criterion_5_tradeoff_oracle():
    started = time.perf_counter()
    rng = random.Random(505)
    sizes = [2, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9, 10]
    for n in sizes:
        ds = _solvable_dataset(rng, n_solvers=n, max_instances=6)
        curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
        expected = brute_force_curve(ds, ds.solver_ids, ds.solver_ids)
        assert [(e.k, e.subset, e.value) for e in curve.entries] == expected
        values = [e.value for e in curve.entries]
        assert values == sorted(values)
    _passline(5, "trade-off curves match per-subset brute force", started, 60.0)


def test_criterion_6_shapley_axioms():
    started = time.perf_counter()
    rng = random.Random(606)

    for _ in range(12):
        n = rng.randint(1, 8)
        ds = _solvable_dataset(rng, n_solvers=n, max_instances=6)
        report = shapley_exact(ds, ds.solver_ids, ds.solver_ids)
        full = reference_perf(ds, ds.solver_ids, ds.solver_ids)
        assert sum(report.values.values()) == full.value

    for _ in range(6):
        base = _solvable_dataset(rng, n_solvers=3, max_instances=5)
        src = base.solver_ids[0]
        solvers = dict(base.solvers, zztwin=False)
        clones = [
            RunRecord("zztwin", iid, base.run(src, iid).status, base.run(src, iid).time,
                      base.run(src, iid).objective)
            for iid in base.instance_ids
        ]
        twinned = build_dataset(
            list(base.instances.values()), solvers,
            [r for _, r in sorted(base.runs.items())] + clones,
        )
        values = shapley_exact(twinned, twinned.solver_ids, twinned.solver_ids).values
        assert values[src] == values["zztwin"]

    for _ in range(6):
        base = make_dataset(rng, n_solvers=3, max_instances=5, solve_all_solver=True)
        solvers = dict(base.solvers, zzdummy=False)
        dummied = build_dataset(
            list(base.instances.values()), solvers, [r for _, r in sorted(base.runs.items())]
        )
        values = shapley_exact(dummied, dummied.solver_ids, dummied.solver_ids).values
        assert values["zzdummy"] == 0

    for _ in range(6):
        n = rng.randint(1, 6)
        ds = _solvable_dataset(rng, n_solvers=n, max_instances=5)
        fast = shapley_exact(ds, ds.solver_ids, ds.solver_ids).values
        assert fast == definitional_shapley(ds, ds.solver_ids, ds.solver_ids)

    worked = worked_example_dataset()
    exact = shapley_exact(worked, worked.solver_ids, worked.solver_ids).values
    assert exact == {"a": Fraction(3, 5), "b": Fraction(2, 5)}
    sampled = shapley_sampled(worked, worked.solver_ids, worked.solver_ids, 10_000, rng_seed=42)
    for sid in worked.solver_ids:
        assert abs(sampled.values[sid] - float(exact[sid])) < 0.02
    _passline(6, "Shapley efficiency, symmetry, null player, oracle, sampling", started, 120.0)


def test_criterion_7_report_determinism(demo_path, tmp_path):
    started = time.perf_counter()
    dirs = [tmp_path / "first", tmp_path / "second"]
    for out_dir in dirs:
        assert main(["report", "--data", str(demo_path), "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    _passline(7, "report bundle is byte-identical across runs", started, 60.0)


OFFICIAL_ENV = "PORTVIEW_OFFICIAL_DATA"


def test_criterion_8_official_data_checks():
    """Optional: reproduce published headline numbers from converted official data."""
    root = os.environ.get(OFFICIAL_ENV)
    if not root:
        pytest.skip(f"{OFFICIAL_ENV} not set; official competition data not bundled")
    root = Path(root)
    tolerance = Fraction(1, 200)  # 0.5 percentage points

    ds = ingest(root / "2020-fd.csv")
    ratio = perf(ds, ds.participant_ids, ds.solver_ids).value
    assert abs(ratio - Fraction(135, 1000)) <= tolerance

    ds = ingest(root / "2019-free.csv")
    participants = ds.participant_ids
    curve = best_subsets(ds, participants, participants)
    entry = curve.entries[0]
    assert entry.subset == ("or-tools",)
    assert abs(entry.value - Fraction(361, 1000)) <= tolerance

    ds = ingest(root / "2020-free.csv")
    participants = ds.participant_ids
    curve = best_subsets(ds, participants, participants)
    entry = curve.entries[1]
    assert set(entry.subset) == {"or-tools", "flatzingo"}
    assert abs(entry.value - Fraction(717, 1000)) <= tolerance
    print("PASS criterion 8: official-data reproductions within 0.5pp")
