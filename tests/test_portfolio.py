import random
from fractions import Fraction

import pytest

from portview import pairscore, portfolio, runstore
from portview.mincover import build_coverage
from portview.pairscore import borda
from portview.portfolio import SubsetScorer, perf, vbs_run
from portview.runstore import (
    DataError,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    build_dataset,
    quality_key,
)
from randgen import make_dataset, random_subset, tie_heavy_dataset
from reference import reference_coverage, reference_perf, reference_scorer_rows, reference_vbs_run

DEC = ProblemKind.DECISION
MIN = ProblemKind.MINIMIZE


def _dataset(instances, runs, participants=None):
    solvers = {r.solver_id: (participants or {}).get(r.solver_id, True) for r in runs}
    return build_dataset(instances, solvers, runs)


def _decision(iid="i1", timeout=100):
    return InstanceMeta(iid, DEC, Fraction(timeout))


def test_vbs_minimum_time_among_solved():
    ds = _dataset(
        [_decision()],
        [
            RunRecord("a", "i1", Status.COMPLETE, Fraction(10)),
            RunRecord("b", "i1", Status.COMPLETE, Fraction(30)),
        ],
    )
    run = vbs_run(ds, ["a", "b"], "i1")
    assert run.status is Status.COMPLETE
    assert run.time == Fraction(10)
    assert build_coverage(ds, ["a", "b"]).best_sets == {"a": {"i1"}, "b": set()}


def test_vbs_quality_dominates_time():
    ds = _dataset(
        [InstanceMeta("i1", MIN, Fraction(100))],
        [
            RunRecord("a", "i1", Status.INCOMPLETE, Fraction(5), Fraction(12)),
            RunRecord("b", "i1", Status.INCOMPLETE, Fraction(50), Fraction(10)),
        ],
    )
    run = vbs_run(ds, ["a", "b"], "i1")
    assert run.objective == Fraction(10)
    assert run.time == Fraction(50)
    assert build_coverage(ds, ["a", "b"]).best_sets == {"a": set(), "b": {"i1"}}


def test_vbs_empty_portfolio_unsolved():
    ds = _dataset([_decision()], [RunRecord("a", "i1", Status.COMPLETE, Fraction(1))])
    run = vbs_run(ds, [], "i1")
    assert run.status is Status.UNSOLVED


def test_vbs_all_unsolved_runs_to_the_timeout():
    ds = _dataset(
        [_decision()],
        [
            RunRecord("a", "i1", Status.UNSOLVED, Fraction(100)),
            RunRecord("b", "i1", Status.UNSOLVED, Fraction(100)),
        ],
    )
    run = vbs_run(ds, ["a", "b"], "i1")
    assert run.status is Status.UNSOLVED
    assert run.time == Fraction(100)


def test_vbs_exact_tie_credits_all_achievers():
    ds = _dataset(
        [_decision()],
        [
            RunRecord("a", "i1", Status.COMPLETE, Fraction(10)),
            RunRecord("b", "i1", Status.COMPLETE, Fraction(10)),
            RunRecord("c", "i1", Status.COMPLETE, Fraction(11)),
        ],
    )
    assert vbs_run(ds, ["a", "b", "c"], "i1").time == Fraction(10)
    cov = build_coverage(ds, ["a", "b", "c"])
    assert cov.best_sets == {"a": {"i1"}, "b": {"i1"}, "c": set()}


def test_vbs_unknown_instance_rejected():
    ds = _dataset([_decision()], [RunRecord("a", "i1", Status.COMPLETE, Fraction(1))])
    with pytest.raises(DataError, match="unknown instance"):
        vbs_run(ds, ["a"], "nope")


def _quality(c):
    return quality_key(c.kind, c.status, c.objective)


def test_vbs_union_is_better_of_parts():
    rng = random.Random(42)
    for _ in range(60):
        ds = make_dataset(rng, max_solvers=6, max_instances=5)
        part_a = random_subset(rng, ds.solver_ids)
        part_b = random_subset(rng, ds.solver_ids)
        union = tuple(sorted(set(part_a) | set(part_b)))
        for iid in ds.instance_ids:
            merged = vbs_run(ds, union, iid)
            pieces = [vbs_run(ds, p, iid) for p in (part_a, part_b)]
            best = max(pieces, key=lambda v: (_quality(v), -v.time))
            assert _quality(merged) == _quality(best)
            if merged.status is not Status.UNSOLVED:
                assert merged.time == best.time


def _assert_vbs_matches_reference(ds, rng):
    portfolios = [ds.solver_ids, ()] + [random_subset(rng, ds.solver_ids) for _ in range(8)]
    for iid in ds.instance_ids:
        for solvers in portfolios:
            got = vbs_run(ds, solvers, iid)
            want = reference_vbs_run(ds, solvers, iid)
            # status, time, objective and kind
            assert got == want


def test_vbs_matches_reference_on_tie_heavy_data():
    ds = tie_heavy_dataset(random.Random(2024), n_solvers=12, n_instances=100)
    _assert_vbs_matches_reference(ds, random.Random(5))


def test_vbs_matches_reference_on_toy_grids():
    rng = random.Random(808)
    for _ in range(40):
        _assert_vbs_matches_reference(make_dataset(rng, max_solvers=6, max_instances=8), rng)


def test_perf_identity_is_exactly_one():
    rng = random.Random(77)
    for _ in range(20):
        ds = make_dataset(rng, max_solvers=5, max_instances=6, solve_all_solver=True)
        ratio = perf(ds, ds.solver_ids, ds.solver_ids)
        assert ratio.value == 1


def test_perf_three_instance_fixture_is_half():
    # portfolio matches the baseline on two instances and loses outright on one
    ds = _dataset(
        [_decision("i1"), _decision("i2"), _decision("i3")],
        [
            RunRecord("a", "i1", Status.COMPLETE, Fraction(10)),
            RunRecord("b", "i1", Status.COMPLETE, Fraction(20)),
            RunRecord("a", "i2", Status.COMPLETE, Fraction(5)),
            RunRecord("b", "i2", Status.COMPLETE, Fraction(9)),
            RunRecord("a", "i3", Status.UNSOLVED, Fraction(100)),
            RunRecord("b", "i3", Status.COMPLETE, Fraction(7)),
        ],
    )
    ratio = perf(ds, ["a"], ["a", "b"])
    assert ratio.numerator == Fraction(1)
    assert ratio.denominator == Fraction(2)
    assert ratio.value == Fraction(1, 2)


def test_perf_counts_symmetric_unsolved_ties():
    ds = _dataset(
        [_decision("i1"), _decision("i2")],
        [
            RunRecord("a", "i1", Status.COMPLETE, Fraction(10)),
            RunRecord("b", "i1", Status.COMPLETE, Fraction(10)),
            RunRecord("a", "i2", Status.UNSOLVED, Fraction(100)),
            RunRecord("b", "i2", Status.UNSOLVED, Fraction(100)),
        ],
    )
    ratio = perf(ds, ["a"], ["a", "b"])
    assert ratio.tied_unsolved == 1
    assert ratio.value == 1  # half point each on both instances


def test_perf_requires_subset():
    ds = _dataset([_decision()], [RunRecord("a", "i1", Status.COMPLETE, Fraction(1))])
    with pytest.raises(DataError, match="subset"):
        perf(ds, ["a"], [])


def test_perf_rejects_hopeless_baseline():
    ds = _dataset([_decision()], [RunRecord("a", "i1", Status.UNSOLVED, Fraction(100))])
    with pytest.raises(DataError, match="solves no instance"):
        perf(ds, ["a"], ["a"])


def test_perf_monotone_in_portfolio():
    rng = random.Random(2023)
    checked = 0
    for _ in range(60):
        ds = make_dataset(rng, max_solvers=6, max_instances=8, solve_all_solver=True)
        baseline = ds.solver_ids
        for _ in range(3):
            small = random_subset(rng, baseline)
            grow = tuple(sorted(set(small) | set(random_subset(rng, baseline))))
            v_small = perf(ds, small, baseline).value
            v_grow = perf(ds, grow, baseline).value
            assert v_small <= v_grow <= 1
            assert 0 <= v_small
            checked += 1
    assert checked >= 100


def _scored(scorer, subset):
    """PerfRatio of ``subset``, ids in the scorer's space, scored through its bitmask."""
    mask = sum(1 << scorer.space.index(sid) for sid in set(subset))
    return scorer.ratio_from_numerator(scorer.evaluate_mask(mask))


def test_scorer_matches_perf():
    rng = random.Random(31337)
    for _ in range(25):
        ds = make_dataset(rng, max_solvers=6, max_instances=6, solve_all_solver=True)
        baseline = ds.solver_ids
        space = random_subset(rng, baseline, allow_empty=False)
        scorer = SubsetScorer(ds, space, baseline)
        for _ in range(5):
            subset = random_subset(rng, space)
            want = reference_perf(ds, subset, baseline)
            assert _scored(scorer, subset) == want
            assert perf(ds, subset, baseline) == want


def test_scorer_matches_perf_at_realistic_size():
    """8 solvers x 100 instances (score denominators near 1,250 bits), and tie-heavy data."""
    ds = make_dataset(random.Random(7), n_solvers=8, n_instances=100)
    baseline = ds.solver_ids
    rng = random.Random(2718)
    subsets = [baseline, *((sid,) for sid in baseline)]
    subsets += [random_subset(rng, baseline, allow_empty=False) for _ in range(28)]
    cases = [(ds, baseline, baseline, subsets)]
    # with a two-solver baseline some instances are solved by nobody (tied unsolved)
    pair = baseline[:2]
    cases.append((ds, pair, pair, [(), pair[:1], pair[1:], pair]))
    assert SubsetScorer(ds, pair, pair).tied_unsolved > 0
    # zero and equal times, best groups of many members, every tenth instance tied unsolved
    ties = tie_heavy_dataset(random.Random(2024), n_solvers=12, n_instances=100)
    space = ties.solver_ids[:9]
    chosen = [(), space, *((sid,) for sid in space)]
    chosen += [random_subset(rng, space, allow_empty=False) for _ in range(20)]
    cases.append((ties, space, ties.solver_ids, chosen))
    for data, space, base, chosen in cases:
        scorer = SubsetScorer(data, space, base)
        for subset in chosen:
            want = reference_perf(data, subset, base)
            assert _scored(scorer, subset) == want
        assert perf(data, space, base) == reference_perf(data, space, base)


def _assert_scorer_state_is_reference(ds, space, baseline):
    scorer = SubsetScorer(ds, space, baseline)
    rows, denominator, tied_unsolved = reference_scorer_rows(ds, space, baseline)
    assert scorer.rows == rows
    assert all(type(x) is int for row in scorer.rows for x in row)
    assert scorer.denominator == denominator
    assert scorer.tied_unsolved == tied_unsolved
    return scorer


def test_scorer_state_matches_reference_on_random_grids():
    rng = random.Random(4242)
    for _ in range(40):
        ds = make_dataset(rng, max_solvers=6, max_instances=8, solve_all_solver=True)
        baseline = tuple(sorted({"s00", *random_subset(rng, ds.solver_ids)}))
        _assert_scorer_state_is_reference(ds, random_subset(rng, baseline), baseline)
        _assert_scorer_state_is_reference(ds, ds.solver_ids, ds.solver_ids)


def test_scorer_state_matches_reference_at_realistic_size():
    """Tie-heavy data (zero and equal times), and a two-solver baseline with tied-unsolved instances."""
    ties = tie_heavy_dataset(random.Random(2024), n_solvers=12, n_instances=100)
    _assert_scorer_state_is_reference(ties, ties.solver_ids[:9], ties.solver_ids)
    _assert_scorer_state_is_reference(ties, ties.participant_ids, ties.solver_ids)
    ds = make_dataset(random.Random(7), n_solvers=8, n_instances=100)
    pair = ds.solver_ids[:2]
    for space in ((), pair[:1], pair):
        assert _assert_scorer_state_is_reference(ds, space, pair).tied_unsolved > 0


def test_scorer_state_matches_reference_off_the_millisecond_grid():
    third, two_sevenths = Fraction(1, 3), Fraction(2, 7)
    ds = _dataset(
        [_decision("i1"), _decision("i2"), _decision("i3"), InstanceMeta("i4", MIN, Fraction(9))],
        [
            RunRecord("a", "i1", Status.COMPLETE, third),
            RunRecord("b", "i1", Status.COMPLETE, two_sevenths),
            RunRecord("c", "i1", Status.COMPLETE, third),
            RunRecord("a", "i2", Status.COMPLETE, Fraction(0)),
            RunRecord("b", "i2", Status.COMPLETE, Fraction(0)),
            RunRecord("c", "i2", Status.COMPLETE, two_sevenths),
            RunRecord("a", "i3", Status.UNSOLVED, Fraction(100)),
            RunRecord("b", "i3", Status.UNSOLVED, Fraction(100)),
            RunRecord("c", "i3", Status.UNSOLVED, Fraction(100)),
            RunRecord("a", "i4", Status.INCOMPLETE, Fraction(1, 7), Fraction(3)),
            RunRecord("b", "i4", Status.COMPLETE, Fraction(11, 3), Fraction(3)),
            RunRecord("c", "i4", Status.COMPLETE, Fraction(2, 9), Fraction(3)),
        ],
    )
    scorer = _assert_scorer_state_is_reference(ds, ["a", "b", "c"], ["a", "b", "c"])
    # a on i1: (2/7) / (1/3 + 2/7) = 6/13; on i2 the zero times split evenly and c
    # scores 0; a on i4 is outside the best group, b there (2/9) / (11/3 + 2/9) = 2/35
    assert scorer.denominator == 2 * 13 * 35
    assert scorer.tied_unsolved == 1
    assert scorer.rows == [
        [6 * 70, 455, 455, 0],
        [455, 455, 455, 2 * 26],
        [6 * 70, 0, 455, 455],
    ]
    rng = random.Random(99)
    instances = [_decision(f"i{k}") for k in range(12)]
    runs = [
        RunRecord(sid, meta.instance_id, status, Fraction(rng.randint(0, 40), rng.choice([3, 7, 9, 11, 13])))
        for meta in instances
        for sid in "abcde"
        for status in [rng.choice([Status.COMPLETE, Status.COMPLETE, Status.UNSOLVED])]
    ]
    odd = _dataset(instances, runs)
    _assert_scorer_state_is_reference(odd, odd.solver_ids, odd.solver_ids)
    _assert_scorer_state_is_reference(odd, ("b", "d"), odd.solver_ids)


def test_each_run_is_ranked_once_per_dataset(monkeypatch):
    """The ranking keys each stored INCOMPLETE run once (COMPLETE and UNSOLVED keys
    are constants), and neither it nor a scorer lifts a run into a ``Comparable``.

    Only the ranking's keys are counted: ``score_ordered`` compares two virtual
    runs through its own binding of ``quality_key``.
    """
    keyed = []
    key = runstore.quality_key

    def counting_quality_key(kind, status, objective):
        keyed.append((kind, status, objective))
        return key(kind, status, objective)

    def no_lift(*args):
        raise AssertionError(f"run lifted into a Comparable: {args!r}")

    monkeypatch.setattr(runstore, "quality_key", counting_quality_key)
    monkeypatch.setattr(pairscore, "Comparable", no_lift)
    monkeypatch.setattr(portfolio, "Comparable", no_lift)
    ds = make_dataset(random.Random(11), n_solvers=7, n_instances=30, solve_all_solver=True)
    incomplete = sum(r.status is Status.INCOMPLETE for r in ds.runs.values())
    assert incomplete > 0
    first = perf(ds, ds.participant_ids, ds.solver_ids)
    assert perf(ds, ds.participant_ids, ds.solver_ids) == first
    assert len(keyed) == incomplete
    # the scorers, Borda and the coverage read the same ranking
    SubsetScorer(ds, ds.solver_ids, ds.solver_ids)
    SubsetScorer(ds, ds.participant_ids, ds.solver_ids)
    borda(ds)
    build_coverage(ds)
    assert len(keyed) == incomplete


FRACTION_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__neg__", "__abs__", "__bool__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


def test_scorer_and_cover_do_no_fraction_arithmetic(monkeypatch):
    """The scorer's rows and the cover's time tolerance are integer tick arithmetic:
    neither calls a ``Fraction`` operator or comparison, on tie-heavy data."""
    ds = tie_heavy_dataset(random.Random(2024), n_solvers=12, n_instances=100)
    epsilon = Fraction(1, 3)
    want_rows = reference_scorer_rows(ds, ds.participant_ids, ds.solver_ids)
    want_cover = reference_coverage(ds, epsilon=epsilon)
    assert ds.quality_ranking  # ranked once per ingest, before the kernels run

    def no_fraction_arithmetic(*args):
        raise AssertionError("Fraction arithmetic in an integer kernel")

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, no_fraction_arithmetic)
    scorer = SubsetScorer(ds, ds.participant_ids, ds.solver_ids)
    SubsetScorer(ds, ds.solver_ids, ds.solver_ids)
    cover = build_coverage(ds, epsilon=epsilon)
    monkeypatch.undo()
    assert (scorer.rows, scorer.denominator, scorer.tied_unsolved) == want_rows
    assert cover == want_cover
    # the tolerance matters here: it admits runs up to 0.3 s behind the fastest
    assert cover != build_coverage(ds)


def test_scorer_rejects_a_dataset_without_instances():
    ds = build_dataset([], {"a": True}, [])
    with pytest.raises(DataError, match=r"^scorer: dataset has no instances$"):
        SubsetScorer(ds, ["a"], ["a"])
