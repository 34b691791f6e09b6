import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from portview import render, tradeoff
from portview.runstore import (
    DataError,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    build_dataset,
)
from portview.tradeoff import TradeoffCurve, best_subsets, thresholds
from randgen import make_dataset, random_subset, tie_heavy_dataset
from reference import reference_best_subsets, reference_perf


def _curve_or_error(search, ds, space, baseline):
    """Each size's (k, subset, ratio), or the message of the ``DataError`` raised."""
    try:
        curve = search(ds, space, baseline)
    except DataError as exc:
        return str(exc)
    return [(e.k, e.subset, e.ratio) for e in curve.entries]


def brute_force_curve(ds, space, baseline):
    """Independent oracle: score every subset with ``reference_perf``, lexicographic tie-break."""
    space = tuple(sorted(space))
    out = []
    for k in range(1, len(space) + 1):
        best = None
        for combo in combinations(space, k):
            value = reference_perf(ds, combo, baseline).value
            if best is None or value > best[1]:
                best = (combo, value)
        out.append((k, best[0], best[1]))
    return out


def test_curve_matches_brute_force_on_random_datasets():
    rng = random.Random(4242)
    for _ in range(12):
        n = rng.randint(2, 6)
        ds = make_dataset(rng, n_solvers=n, max_instances=6, solve_all_solver=True)
        baseline = ds.solver_ids
        space = random_subset(rng, baseline, allow_empty=False)
        curve = best_subsets(ds, space, baseline)
        expected = brute_force_curve(ds, space, baseline)
        got = [(e.k, e.subset, e.value) for e in curve.entries]
        assert got == expected
        values = [e.value for e in curve.entries]
        assert values == sorted(values)


def test_reported_value_matches_fresh_perf():
    rng = random.Random(1212)
    ds = make_dataset(rng, n_solvers=5, n_instances=6, solve_all_solver=True)
    curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
    for entry in curve.entries:
        again = reference_perf(ds, entry.subset, ds.solver_ids)
        assert entry.value == again.value
        assert entry.ratio.numerator == again.numerator


def test_full_space_reaches_one():
    rng = random.Random(77)
    ds = make_dataset(rng, n_solvers=4, n_instances=5, solve_all_solver=True)
    curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
    assert curve.entries[-1].k == len(ds.solver_ids)
    assert curve.entries[-1].value == 1


def test_best_subsets_can_be_non_nested():
    # best singleton {a}, but the best pair {b, c} does not contain it
    instances = [InstanceMeta(f"i{j}", ProblemKind.DECISION, Fraction(10)) for j in range(1, 5)]
    runs = []
    for j in range(1, 5):
        runs.append(RunRecord("a", f"i{j}", Status.COMPLETE, Fraction(2)))
    for j in (1, 2):
        runs.append(RunRecord("b", f"i{j}", Status.COMPLETE, Fraction(1)))
        runs.append(RunRecord("c", f"i{j + 2}", Status.COMPLETE, Fraction(1)))
    ds = build_dataset(instances, {"a": True, "b": True, "c": True}, runs)
    curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
    assert curve.entries[0].subset == ("a",)
    assert curve.entries[0].value == Fraction(1, 2)
    assert curve.entries[1].subset == ("b", "c")
    assert curve.entries[1].value == 1
    assert not set(curve.entries[0].subset) <= set(curve.entries[1].subset)


def test_tie_break_prefers_lexicographically_smallest():
    instances = [InstanceMeta("i1", ProblemKind.DECISION, Fraction(10))]
    runs = [
        RunRecord("b", "i1", Status.COMPLETE, Fraction(3)),
        RunRecord("a", "i1", Status.COMPLETE, Fraction(3)),
    ]
    ds = build_dataset(instances, {"a": True, "b": True}, runs)
    curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
    assert curve.entries[0].subset == ("a",)


def test_identical_solvers_give_the_first_k():
    """26 tied solvers, over the old 25-solver enumeration guard: every size
    keeps the lexicographically first subset."""
    instances = [InstanceMeta("i1", ProblemKind.DECISION, Fraction(10))]
    solvers = {f"s{j:02d}": True for j in range(26)}
    runs = [RunRecord(sid, "i1", Status.COMPLETE, Fraction(1)) for sid in solvers]
    ds = build_dataset(instances, solvers, runs)
    curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
    assert [e.subset for e in curve.entries] == [ds.solver_ids[:k] for k in range(1, 27)]
    assert all(e.value == 1 for e in curve.entries)


def test_empty_space_rejected():
    rng = random.Random(5)
    ds = make_dataset(rng, n_solvers=2, n_instances=2, solve_all_solver=True)
    with pytest.raises(DataError):
        best_subsets(ds, [], ds.solver_ids)


def test_thresholds_first_crossing():
    rng = random.Random(99)
    ds = make_dataset(rng, n_solvers=4, n_instances=6, solve_all_solver=True)
    curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
    reached = thresholds(curve, [Fraction(1)])
    assert reached[Fraction(1)] == min(e.k for e in curve.entries if e.value == 1)
    for level, k in thresholds(curve, [Fraction(1, 2), Fraction(4, 5)]).items():
        assert curve.entries[k - 1].value >= level
        assert all(e.value < level for e in curve.entries if e.k < k)


def test_thresholds_unreachable_levels_omitted():
    instances = [
        InstanceMeta("i1", ProblemKind.DECISION, Fraction(10)),
        InstanceMeta("i2", ProblemKind.DECISION, Fraction(10)),
    ]
    runs = [
        RunRecord("a", "i1", Status.COMPLETE, Fraction(1)),
        RunRecord("b", "i1", Status.COMPLETE, Fraction(1)),
        RunRecord("b", "i2", Status.COMPLETE, Fraction(1)),
    ]
    ds = build_dataset(instances, {"a": True, "b": True}, runs)
    curve = best_subsets(ds, ["a"], ds.solver_ids)  # a alone can never reach 1
    reached = thresholds(curve, [Fraction(1, 10), Fraction(1)])
    assert Fraction(1, 10) in reached
    assert Fraction(1) not in reached


def test_thresholds_require_sorted_levels():
    rng = random.Random(123)
    ds = make_dataset(rng, n_solvers=2, n_instances=2, solve_all_solver=True)
    curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
    with pytest.raises(DataError, match="ascending"):
        thresholds(curve, [Fraction(9, 10), Fraction(1, 2)])


@pytest.mark.parametrize("levels", [(Fraction(1, 2),) * 2, (Fraction(1, 4), Fraction(1, 2), Fraction(2, 4))])
def test_thresholds_refuse_a_repeated_level(levels):
    """A repeated level would be one key of the result for two rows of the caller's table."""
    ds = make_dataset(random.Random(123), n_solvers=2, n_instances=2, solve_all_solver=True)
    curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
    with pytest.raises(DataError, match="^thresholds: levels must be strictly ascending$"):
        thresholds(curve, levels)


def test_curve_matches_brute_force_at_realistic_size():
    """Six of 8 solvers x 100 instances searched against the full 8-solver baseline."""
    ds = make_dataset(random.Random(7), n_solvers=8, n_instances=100)
    space = ds.solver_ids[:6]
    curve = best_subsets(ds, space, ds.solver_ids)
    got = [(e.k, e.subset, e.value) for e in curve.entries]
    assert got == brute_force_curve(ds, space, ds.solver_ids)


def test_curve_matches_the_exhaustive_reference_on_small_grids():
    rng = random.Random(1207)
    for case in range(64):
        make = tie_heavy_dataset if case % 2 else make_dataset
        ds = make(rng, rng.randint(1, 10), rng.randint(1, 30))
        baseline = ds.solver_ids
        space = random_subset(rng, baseline, allow_empty=False)
        got = _curve_or_error(best_subsets, ds, space, baseline)
        assert got == _curve_or_error(reference_best_subsets, ds, space, baseline), case


def test_curve_matches_the_exhaustive_reference_at_m100():
    """n = 8-12 solvers x 100 instances, every other grid tie-heavy."""
    rng = random.Random(1208)
    for case in range(10):
        make = tie_heavy_dataset if case % 2 else make_dataset
        ds = make(rng, 8 + case % 5, 100)
        got = _curve_or_error(best_subsets, ds, ds.solver_ids, ds.solver_ids)
        assert got == _curve_or_error(reference_best_subsets, ds, ds.solver_ids, ds.solver_ids)


def test_progress_line_reports_a_rate(monkeypatch, verbose):
    monkeypatch.setattr(render, "PROGRESS_EVERY", 1)
    ds = make_dataset(random.Random(5), n_solvers=6, n_instances=8, solve_all_solver=True)
    verbose()
    best_subsets(ds, ds.solver_ids, ds.solver_ids)
    line = re.compile(r"best_subsets: (\d+) nodes \(size (\d), \d+ nodes/s\)")
    matches = [line.fullmatch(text) for text in verbose()]
    assert matches and all(matches)
    nodes = [int(m[1]) for m in matches]
    assert nodes == list(range(1, len(nodes) + 1))
    sizes = [int(m[2]) for m in matches]
    assert sizes == sorted(sizes) and sizes[-1] == 6


def test_space_over_the_old_guard_completes(monkeypatch):
    """26 solvers: 2^26 - 1 subsets, refused by the old enumeration guard; the
    search scores one subset per size."""
    evaluated = []

    class CountingScorer(tradeoff.SubsetScorer):
        def evaluate_mask(self, mask):
            evaluated.append(mask)
            return super().evaluate_mask(mask)

    monkeypatch.setattr(tradeoff, "SubsetScorer", CountingScorer)
    ds = make_dataset(random.Random(26), n_solvers=26, n_instances=5, solve_all_solver=True)
    curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
    assert len(evaluated) == 26
    assert [e.k for e in curve.entries] == list(range(1, 27))
    for entry in curve.entries:
        assert entry.ratio == reference_perf(ds, entry.subset, ds.solver_ids)
    values = [e.value for e in curve.entries]
    assert values == sorted(values) and values[-1] == 1
    # a size that reaches 1 needs no more solvers than one best solver per instance
    assert values.index(1) < 5


def _counted_searches(monkeypatch) -> list:
    """Swap ``tradeoff._Search`` for a subclass that keeps every search it builds."""
    searches = []

    class CountingSearch(tradeoff._Search):
        def __init__(self, rows):
            super().__init__(rows)
            searches.append(self)

    monkeypatch.setattr(tradeoff, "_Search", CountingSearch)
    return searches


def test_the_bounds_keep_the_18_solver_search_small(monkeypatch):
    """The full 18 x 100 space takes 4,340 nodes; without the gain bound or the
    union bound it takes over 15,000, which the exactness tests cannot see."""
    searches = _counted_searches(monkeypatch)
    ds = make_dataset(random.Random(7), n_solvers=18, n_instances=100)
    best_subsets(ds, ds.solver_ids, ds.solver_ids)
    assert len(searches) == 1 and searches[0].meter.nodes <= 5_000


def test_the_work_budget_counts_shared_instances(monkeypatch):
    """Every instance copied 10 times: the same nodes, 10 times the work units,
    so a budget between the two passes the original and stops the copy."""
    searches = _counted_searches(monkeypatch)
    ds = make_dataset(random.Random(3), n_solvers=9, n_instances=20)
    instances, runs = [], []
    for copy in range(10):
        renamed = {iid: f"{iid}#{copy}" for iid in ds.instance_ids}
        instances += [meta._replace(instance_id=renamed[iid]) for iid, meta in ds.instances.items()]
        runs += [run._replace(instance_id=renamed[run.instance_id]) for run in ds.runs.values()]
    copied = build_dataset(instances, ds.solvers, runs)
    curve = best_subsets(ds, ds.solver_ids, ds.solver_ids)
    assert [e.subset for e in best_subsets(copied, ds.solver_ids, ds.solver_ids).entries] == [
        e.subset for e in curve.entries
    ]
    original, tenfold = searches
    assert original.meter.nodes == tenfold.meter.nodes and original.work > 0
    assert tenfold.work == 10 * original.work
    monkeypatch.setattr(tradeoff, "WORK_BUDGET", 5 * original.work)
    best_subsets(ds, ds.solver_ids, ds.solver_ids)
    with pytest.raises(DataError, match=r"^best_subsets: work budget exhausted after \d+ nodes"):
        best_subsets(copied, ds.solver_ids, ds.solver_ids)


def test_thresholds_reject_an_empty_curve():
    with pytest.raises(DataError, match=r"^thresholds: empty curve$"):
        thresholds(TradeoffCurve((), ("a",), ("a",)), [Fraction(1, 2)])
