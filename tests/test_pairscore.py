import random
from fractions import Fraction

import pytest

from portview.pairscore import Comparable, best_group, borda, run_comparable, score_ordered
from portview.runstore import DataError, ProblemKind, Status, build_dataset, InstanceMeta, RunRecord
from portview.runstore import quality_key
from randgen import make_dataset, random_subset, tie_heavy_dataset

DEC = ProblemKind.DECISION
MIN = ProblemKind.MINIMIZE
MAX = ProblemKind.MAXIMIZE


def comp(status, time, objective=None, kind=DEC):
    return Comparable(status, Fraction(time), objective, kind)


def inc(time, objective, kind=MIN):
    return Comparable(Status.INCOMPLETE, Fraction(time), Fraction(objective), kind)


# the five worked scoring examples


def test_solved_beats_unsolved_decision():
    got = score_ordered(comp(Status.COMPLETE, 10), comp(Status.UNSOLVED, 60))
    assert got == (Fraction(1), Fraction(0))


def test_time_proportional_split_decision():
    got = score_ordered(comp(Status.COMPLETE, 10), comp(Status.COMPLETE, 30))
    assert got == (Fraction(3, 4), Fraction(1, 4))


def test_both_unsolved_first_takes_point():
    got = score_ordered(comp(Status.UNSOLVED, 60), comp(Status.UNSOLVED, 60))
    assert got == (Fraction(1), Fraction(0))
    # and in the other direction too: the asymmetry is deliberate
    got = score_ordered(comp(Status.UNSOLVED, 1), comp(Status.UNSOLVED, 60))
    assert got == (Fraction(1), Fraction(0))


def test_better_incomplete_objective_wins_minimize():
    got = score_ordered(inc(5, 10), inc(5, 12))
    assert got == (Fraction(1), Fraction(0))


def test_both_complete_faster_wins_proportionally():
    a = Comparable(Status.COMPLETE, Fraction(20), Fraction(4), MIN)
    b = Comparable(Status.COMPLETE, Fraction(60), Fraction(4), MIN)
    assert score_ordered(a, b) == (Fraction(3, 4), Fraction(1, 4))


# edge rules


def test_larger_objective_wins_maximize():
    assert score_ordered(inc(9, 3, MAX), inc(1, 5, MAX)) == (Fraction(0), Fraction(1))


def test_complete_outranks_incomplete_regardless_of_objective():
    complete = Comparable(Status.COMPLETE, Fraction(50), Fraction(10), MIN)
    better_incomplete = inc(1, 5)
    assert score_ordered(complete, better_incomplete) == (Fraction(1), Fraction(0))


def test_zero_times_split_evenly():
    got = score_ordered(comp(Status.COMPLETE, 0), comp(Status.COMPLETE, 0))
    assert got == (Fraction(1, 2), Fraction(1, 2))


def test_equal_incomplete_equal_times_split_evenly():
    assert score_ordered(inc(7, 4), inc(7, 4)) == (Fraction(1, 2), Fraction(1, 2))


def test_kind_mismatch_rejected():
    with pytest.raises(DataError, match="cannot compare"):
        score_ordered(comp(Status.COMPLETE, 1), inc(1, 5))


def test_comparable_validation():
    with pytest.raises(DataError):
        Comparable(Status.INCOMPLETE, Fraction(1), Fraction(5), DEC)
    with pytest.raises(DataError):
        Comparable(Status.UNSOLVED, Fraction(1), Fraction(5), MIN)
    with pytest.raises(DataError):
        Comparable(Status.COMPLETE, Fraction(1), None, MIN)
    with pytest.raises(DataError):
        Comparable(Status.COMPLETE, Fraction(-1), None, DEC)


# borda fixtures


def _decision_dataset(rows):
    # rows: {solver: (status, time)} on a single decision instance
    instances = [InstanceMeta("i1", DEC, Fraction(100))]
    solvers = {sid: True for sid in rows}
    runs = [RunRecord(sid, "i1", status, Fraction(t)) for sid, (status, t) in rows.items()]
    return build_dataset(instances, solvers, runs)


def test_borda_three_solver_fixture():
    ds = _decision_dataset(
        {
            "a": (Status.COMPLETE, 10),
            "b": (Status.COMPLETE, 30),
            "c": (Status.UNSOLVED, 100),
        }
    )
    matrix = borda(ds)
    assert matrix.totals == {"a": Fraction(7, 4), "b": Fraction(5, 4), "c": Fraction(0)}
    assert matrix.averages == matrix.totals  # single instance
    assert [sid for _, sid in matrix.ranking()] == ["a", "b", "c"]


def test_borda_both_fail_totals_one_each():
    ds = _decision_dataset({"a": (Status.UNSOLVED, 100), "b": (Status.UNSOLVED, 100)})
    matrix = borda(ds)
    assert matrix.totals == {"a": Fraction(1), "b": Fraction(1)}


def test_borda_single_solver_scores_zero():
    ds = _decision_dataset({"a": (Status.COMPLETE, 10)})
    matrix = borda(ds)
    assert matrix.totals == {"a": Fraction(0)}


def test_borda_empty_dataset_rejected():
    ds = build_dataset([], {}, [])
    with pytest.raises(DataError):
        borda(ds)


def test_borda_ranking_tie_break_lexicographic():
    ds = _decision_dataset({"b": (Status.COMPLETE, 10), "a": (Status.COMPLETE, 10)})
    matrix = borda(ds)
    assert matrix.ranking() == [(1, "a"), (2, "b")]


# randomized properties


def _random_comparable(rng: random.Random, kind: ProblemKind) -> Comparable:
    roll = rng.random()
    time = Fraction(rng.randint(0, 5000), 1000)
    if roll < 0.35:
        objective = Fraction(rng.randint(-8, 8)) if kind.is_optimization else None
        return Comparable(Status.COMPLETE, time, objective, kind)
    if roll < 0.7 and kind.is_optimization:
        return Comparable(Status.INCOMPLETE, time, Fraction(rng.randint(-8, 8)), kind)
    return Comparable(Status.UNSOLVED, time, None, kind)


def test_scoring_invariants_randomized():
    rng = random.Random(1234)
    kinds = [DEC, MIN, MAX]
    for _ in range(10_000):
        kind = rng.choice(kinds)
        a = _random_comparable(rng, kind)
        b = _random_comparable(rng, kind)
        sa, sb = score_ordered(a, b)
        assert sa + sb == 1
        assert 0 <= sa <= 1
        ra, rb = score_ordered(b, a)
        if a.status is Status.UNSOLVED and b.status is Status.UNSOLVED:
            assert (sa, sb) == (Fraction(1), Fraction(0))
            assert (ra, rb) == (Fraction(1), Fraction(0))
        else:
            assert sa + ra == 1


def test_scale_invariance_of_times():
    rng = random.Random(99)
    for _ in range(200):
        kind = rng.choice([DEC, MIN, MAX])
        a = _random_comparable(rng, kind)
        b = _random_comparable(rng, kind)
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        a2 = Comparable(a.status, a.time * scale, a.objective, kind)
        b2 = Comparable(b.status, b.time * scale, b.objective, kind)
        assert score_ordered(a, b) == score_ordered(a2, b2)


def _instance_scores(ds):
    """Each (solver, instance) Borda score, as the totals of ``borda`` on that
    instance's one-instance dataset; asserts that the whole dataset's totals are
    their sums, since Borda adds up over instances."""
    scores = {}
    for iid in ds.instance_ids:
        runs = [ds.runs[(sid, iid)] for sid in ds.solver_ids]
        one = build_dataset([ds.instances[iid]], ds.solvers, runs)
        for sid, score in borda(one).totals.items():
            scores[(sid, iid)] = score
    totals = borda(ds).totals
    for sid in ds.solver_ids:
        assert totals[sid] == sum((scores[(sid, iid)] for iid in ds.instance_ids), Fraction(0))
    return scores


def test_borda_totals_sum_property():
    rng = random.Random(321)
    for _ in range(40):
        ds = make_dataset(rng, max_solvers=5, max_instances=5)
        scores = _instance_scores(ds)
        solvers = ds.solver_ids
        n = len(solvers)
        for iid in ds.instance_ids:
            both_fail_pairs = 0
            for x in range(n):
                for y in range(x + 1, n):
                    rx = ds.run(solvers[x], iid)
                    ry = ds.run(solvers[y], iid)
                    if rx.status is Status.UNSOLVED and ry.status is Status.UNSOLVED:
                        both_fail_pairs += 1
            instance_total = sum((scores[(sid, iid)] for sid in solvers), Fraction(0))
            assert instance_total == Fraction(n * (n - 1), 2) + both_fail_pairs


def test_totals_and_averages_consistent():
    rng = random.Random(555)
    ds = make_dataset(rng, n_solvers=4, n_instances=6)
    matrix = borda(ds)
    scores = _instance_scores(ds)
    for sid in ds.solver_ids:
        total = sum((scores[(sid, iid)] for iid in ds.instance_ids), Fraction(0))
        assert matrix.totals[sid] == total
        assert matrix.averages[sid] == total / len(ds.instance_ids)


# borda against the pairwise definition


def _pairwise_borda(ds):
    """Per-instance scores as the plain double loop over ``score_ordered``, and the
    number of ordered pairs that reach the time split."""
    per_instance = {}
    split_pairs = 0
    for iid in ds.instance_ids:
        comps = {sid: run_comparable(ds, sid, iid) for sid in ds.solver_ids}
        keys = {sid: quality_key(c.kind, c.status, c.objective) for sid, c in comps.items()}
        for sid in ds.solver_ids:
            mine = comps[sid]
            score = Fraction(0)
            for other in ds.solver_ids:
                if other != sid:
                    theirs = comps[other]
                    score += score_ordered(mine, theirs)[0]
                    if keys[sid] == keys[other] and not (
                        mine.status is theirs.status is Status.UNSOLVED
                    ):
                        split_pairs += 1
            per_instance[(sid, iid)] = score
    return per_instance, split_pairs


def _assert_borda_is_pairwise(ds, verbose):
    expected, split_pairs = _pairwise_borda(ds)
    assert list(_instance_scores(ds).items()) == list(expected.items())
    verbose()
    matrix = borda(ds)
    lines = verbose()
    m = len(ds.instance_ids)
    for sid in ds.solver_ids:
        total = sum((expected[(sid, iid)] for iid in ds.instance_ids), Fraction(0))
        assert matrix.totals[sid] == total
        assert matrix.averages[sid] == total / m
    n = len(ds.solver_ids)
    assert lines == [
        f"borda: {n} solvers x {m} instances, {split_pairs} time-split pairs of {n * (n - 1) * m}"
    ]


def test_borda_equals_pairwise_definition_on_tie_heavy_data(verbose):
    ds = tie_heavy_dataset(random.Random(2024), n_solvers=12, n_instances=100)
    statuses = {run.status for run in ds.runs.values()}
    assert statuses == {Status.COMPLETE, Status.INCOMPLETE, Status.UNSOLVED}
    assert any("disagree on the objective" in w for w in ds.warnings)
    _assert_borda_is_pairwise(ds, verbose)


def test_borda_equals_pairwise_definition_on_toy_grids(verbose):
    rng = random.Random(808)
    for _ in range(40):
        _assert_borda_is_pairwise(make_dataset(rng, max_solvers=6, max_instances=8), verbose)


def test_best_group_is_the_subsets_runs_with_the_largest_quality_key():
    """A brute force over ``quality_key``: the subset's runs with the largest key, in
    id order, or ``[]`` when that key is unsolved (or the subset is empty)."""
    rng = random.Random(1606)
    grids = [make_dataset(rng, max_solvers=6, max_instances=8) for _ in range(40)]
    grids.append(tie_heavy_dataset(rng, n_solvers=9, n_instances=40))
    unsolved = quality_key(DEC, Status.UNSOLVED, None)
    solved_by_nobody = checked = 0
    for ds in grids:
        subsets = [(), ds.solver_ids, *(random_subset(rng, ds.solver_ids) for _ in range(6))]
        for subset in subsets:
            for iid in ds.instance_ids:
                kind = ds.instances[iid].kind
                runs = [ds.run(sid, iid) for sid in sorted(subset)]
                keys = [quality_key(kind, r.status, r.objective) for r in runs]
                top = max(keys, default=unsolved)
                want = [] if top == unsolved else [
                    (r.solver_id, r) for r, key in zip(runs, keys) if key == top
                ]
                assert best_group(ds, reversed(subset), iid) == want
                checked += 1
        solved_by_nobody += sum(
            all(ds.run(sid, iid).status is Status.UNSOLVED for sid in ds.solver_ids)
            for iid in ds.instance_ids
        )
    assert solved_by_nobody >= 10 and checked >= 1000


def test_borda_rejects_a_dataset_without_instances():
    with pytest.raises(DataError, match=r"^borda: dataset has no instances$"):
        borda(build_dataset([], {"a": True}, []))
