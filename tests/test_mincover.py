import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from portview import mincover, render
from portview.mincover import CoverageMap, build_coverage, min_cover
from portview.portfolio import perf
from portview.runstore import (
    DataError,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    build_dataset,
)
from randgen import make_dataset, random_subset, tie_heavy_dataset
from reference import reference_coverage, reference_min_cover


def _cover_map(best_sets: dict[str, set[str]], universe: set[str]) -> CoverageMap:
    return CoverageMap(
        {sid: frozenset(ids) for sid, ids in best_sets.items()}, frozenset(universe)
    )


def exhaustive_min_covers(best_sets: dict[str, frozenset[str]], universe: frozenset[str]):
    """Independent oracle: check every subset of solvers, smallest covers win."""
    solvers = sorted(best_sets)
    for size in range(1, len(solvers) + 1):
        found = [
            combo
            for combo in combinations(solvers, size)
            if set().union(*(best_sets[s] for s in combo)) >= universe
        ]
        if found:
            return size, sorted(tuple(c) for c in found)
    return None, []


def test_overlapping_sets_have_two_optima():
    # exhaustive check: both {a,b} and {a,c} cover all three instances
    cov = _cover_map(
        {"a": {"i1", "i2"}, "b": {"i2", "i3"}, "c": {"i3"}}, {"i1", "i2", "i3"}
    )
    solution = min_cover(cov)
    assert solution.size == 2
    assert solution.portfolios == (("a", "b"), ("a", "c"))
    assert not solution.is_unique


def test_single_full_cover_is_unique():
    cov = _cover_map({"a": {"i1", "i2"}, "b": {"i1"}}, {"i1", "i2"})
    solution = min_cover(cov)
    assert solution.portfolios == (("a",),)
    assert solution.size == 1
    assert solution.is_unique


def test_identical_twins_give_two_optima():
    cov = _cover_map({"a": {"i1", "i2"}, "b": {"i1", "i2"}}, {"i1", "i2"})
    solution = min_cover(cov)
    assert solution.portfolios == (("a",), ("b",))
    assert not solution.is_unique


def test_empty_universe_rejected():
    cov = _cover_map({"a": set()}, set())
    with pytest.raises(DataError, match="empty universe"):
        min_cover(cov)


def test_uncoverable_universe_rejected():
    cov = _cover_map({"a": {"i1"}}, {"i1", "i2"})
    with pytest.raises(DataError, match="not coverable"):
        min_cover(cov)


def test_enumeration_cap_reported():
    cov = _cover_map({f"s{j}": {"i1"} for j in range(6)}, {"i1"})
    solution = min_cover(cov, cap=3)
    assert solution.size == 1
    assert len(solution.portfolios) == 3
    assert solution.cap_reached
    assert not solution.is_unique


def test_dominated_solver_never_changes_solutions():
    best_sets = {"a": {"i1", "i2"}, "b": {"i2", "i3"}, "c": {"i3"}}
    universe = {"i1", "i2", "i3"}
    with_dummy = dict(best_sets, dummy=set())
    assert min_cover(_cover_map(best_sets, universe)) == min_cover(
        _cover_map(with_dummy, universe)
    )


def _three_instance_fixture():
    # a best on i1 and i2 (tied with b on i2), b best on i2 and i3, c dominated
    instances = [InstanceMeta(i, ProblemKind.DECISION, Fraction(100)) for i in ("i1", "i2", "i3")]
    runs = [
        RunRecord("a", "i1", Status.COMPLETE, Fraction(5)),
        RunRecord("b", "i1", Status.COMPLETE, Fraction(9)),
        RunRecord("c", "i1", Status.COMPLETE, Fraction(20)),
        RunRecord("a", "i2", Status.COMPLETE, Fraction(4)),
        RunRecord("b", "i2", Status.COMPLETE, Fraction(4)),
        RunRecord("c", "i2", Status.UNSOLVED, Fraction(100)),
        RunRecord("a", "i3", Status.UNSOLVED, Fraction(100)),
        RunRecord("b", "i3", Status.COMPLETE, Fraction(2)),
        RunRecord("c", "i3", Status.COMPLETE, Fraction(3)),
    ]
    return build_dataset(instances, {"a": True, "b": True, "c": True}, runs)


def test_build_coverage_fixture():
    ds = _three_instance_fixture()
    cov = build_coverage(ds)
    assert cov.universe == {"i1", "i2", "i3"}
    assert cov.best_sets["a"] == {"i1", "i2"}
    assert cov.best_sets["b"] == {"i2", "i3"}
    assert cov.best_sets["c"] == frozenset()
    assert cov.unsolvable == frozenset()


def test_build_coverage_sole_solver_owns_universe():
    instances = [InstanceMeta("i1", ProblemKind.DECISION, Fraction(10))]
    ds = build_dataset(instances, {"a": True}, [RunRecord("a", "i1", Status.COMPLETE, Fraction(1))])
    cov = build_coverage(ds)
    assert cov.best_sets["a"] == cov.universe == {"i1"}


def test_build_coverage_exact_tie_shares_instances():
    instances = [InstanceMeta("i1", ProblemKind.DECISION, Fraction(10))]
    runs = [
        RunRecord("a", "i1", Status.COMPLETE, Fraction(3)),
        RunRecord("b", "i1", Status.COMPLETE, Fraction(3)),
    ]
    ds = build_dataset(instances, {"a": True, "b": True}, runs)
    cov = build_coverage(ds)
    assert cov.best_sets["a"] == cov.best_sets["b"] == {"i1"}


def test_build_coverage_epsilon_widens_ties():
    instances = [InstanceMeta("i1", ProblemKind.DECISION, Fraction(10))]
    runs = [
        RunRecord("a", "i1", Status.COMPLETE, Fraction(3)),
        RunRecord("b", "i1", Status.COMPLETE, Fraction(7, 2)),
    ]
    ds = build_dataset(instances, {"a": True, "b": True}, runs)
    assert build_coverage(ds).best_sets["b"] == frozenset()
    relaxed = build_coverage(ds, epsilon=Fraction(1, 2))
    assert relaxed.best_sets["b"] == {"i1"}
    with pytest.raises(DataError, match="non-negative"):
        build_coverage(ds, epsilon=Fraction(-1))


def test_build_coverage_reports_unsolvable():
    instances = [
        InstanceMeta("i1", ProblemKind.DECISION, Fraction(10)),
        InstanceMeta("i2", ProblemKind.DECISION, Fraction(10)),
    ]
    runs = [RunRecord("a", "i1", Status.COMPLETE, Fraction(1))]
    ds = build_dataset(instances, {"a": True}, runs)
    cov = build_coverage(ds)
    assert cov.universe == {"i1"}
    assert cov.unsolvable == {"i2"}


def _assert_coverage_matches_reference(ds, rng):
    portfolios = [None] + [random_subset(rng, ds.solver_ids) for _ in range(4)]
    for solvers in portfolios:
        for epsilon in (Fraction(0), Fraction(5)):
            got = build_coverage(ds, solvers, epsilon)
            want = reference_coverage(ds, solvers, epsilon)
            assert got.best_sets == want.best_sets
            assert got.universe == want.universe
            assert got.unsolvable == want.unsolvable


def test_build_coverage_matches_reference_on_tie_heavy_data():
    ds = tie_heavy_dataset(random.Random(2024), n_solvers=12, n_instances=100)
    assert build_coverage(ds, epsilon=Fraction(5)) != build_coverage(ds)
    _assert_coverage_matches_reference(ds, random.Random(6))


def test_build_coverage_matches_reference_on_toy_grids():
    rng = random.Random(808)
    for _ in range(40):
        _assert_coverage_matches_reference(make_dataset(rng, max_solvers=6, max_instances=8), rng)


def _random_grids():
    """120 small datasets, each with a solver solving every instance."""
    rng = random.Random(1789)
    for _ in range(120):
        n = rng.randint(1, 12)
        yield make_dataset(rng, n_solvers=n, max_instances=10, solve_all_solver=True)


def test_min_cover_matches_exhaustive_search_and_oracle_equivalence():
    for ds in _random_grids():
        cov = build_coverage(ds)
        solution = min_cover(cov)
        size, optima = exhaustive_min_covers(cov.best_sets, cov.universe)
        assert solution.size == size
        assert list(solution.portfolios) == optima
        for portfolio in solution.portfolios[:5]:
            assert perf(ds, portfolio, ds.solver_ids).value == 1


def test_min_cover_deterministic_under_input_order():
    best_sets = {"b": {"i2", "i3"}, "a": {"i1", "i2"}, "c": {"i3"}}
    universe = {"i1", "i2", "i3"}
    first = min_cover(_cover_map(best_sets, universe))
    reordered = {"c": {"i3"}, "a": {"i1", "i2"}, "b": {"i2", "i3"}}
    second = min_cover(_cover_map(reordered, universe))
    assert first == second


@pytest.fixture(scope="module")
def covers_with_reference():
    """(coverage, reference optima) on the random grids and on tie-heavy 30 x 100."""
    tie_heavy = (tie_heavy_dataset(random.Random(seed), 30, 100) for seed in range(6))
    covers = [build_coverage(ds) for ds in (*_random_grids(), *tie_heavy)]
    return [(cov, reference_min_cover(cov)) for cov in covers]


def test_min_cover_matches_reference_below_the_cap(covers_with_reference):
    for cov, want in covers_with_reference:
        assert min_cover(cov) == want


def test_capped_min_cover_keeps_optima_of_the_reference(covers_with_reference):
    """Past the cap, which optima are kept may differ from the reference's; their
    number, their size and the flags may not, and each is one of the optima."""
    capped = 0
    for cov, want in covers_with_reference:
        optima = len(want.portfolios)
        for cap in (1, 2, 3):
            got = min_cover(cov, cap)
            assert got == reference_min_cover(cov, cap)._replace(portfolios=got.portfolios)
            assert len(got.portfolios) == len(set(got.portfolios)) == min(optima, cap)
            assert set(got.portfolios) <= set(want.portfolios)
            capped += got.cap_reached
    assert capped >= 30


def _searched(monkeypatch, verbose, cov: CoverageMap, cap: int = 1000):
    """``min_cover``'s solution and its node count, read off one progress line per node;
    a search that writes no line fails, so no bound on the count passes by reading 0."""
    monkeypatch.setattr(render, "PROGRESS_EVERY", 1)
    verbose()
    solution = min_cover(cov, cap)
    nodes = sum(line.startswith("min_cover: ") for line in verbose())
    assert nodes, "no min_cover progress line was written"
    return solution, nodes


def test_the_cap_stops_the_search(monkeypatch, verbose):
    """16 pairs of twins: 2**16 optima, of which three are kept."""
    cov = _cover_map(
        {f"{twin}{j:02d}": {f"i{j:02d}"} for j in range(16) for twin in "ab"},
        {f"i{j:02d}" for j in range(16)},
    )
    solution, nodes = _searched(monkeypatch, verbose, cov, cap=3)
    assert (solution.size, len(solution.portfolios), solution.cap_reached) == (16, 3, True)
    assert 17 <= nodes <= 100  # at least the root and one node per level of the cover


def test_tie_heavy_cover_of_forty_solvers_searches_few_nodes(monkeypatch, verbose):
    cov = build_coverage(tie_heavy_dataset(random.Random(0), 40, 100))
    solution, nodes = _searched(monkeypatch, verbose, cov)
    assert (solution.size, len(solution.portfolios), solution.cap_reached) == (11, 550, False)
    assert nodes <= 20_000


def test_tie_heavy_cover_of_forty_solvers_keeps_its_search_tree(monkeypatch, verbose):
    """The branching instance, the bound and the prunes fix the tree: its size is pinned."""
    cov = build_coverage(tie_heavy_dataset(random.Random(0), 40, 100))
    assert _searched(monkeypatch, verbose, cov)[1] == 10_409


def test_work_budget_exhausted_names_nodes_and_best_size(monkeypatch):
    monkeypatch.setattr(mincover, "NODE_BUDGET", 100)
    cov = build_coverage(tie_heavy_dataset(random.Random(0), 30, 100))
    with pytest.raises(DataError) as info:
        min_cover(cov)
    found = re.fullmatch(
        r"min_cover: work budget exhausted after (\d+) nodes, with a cover of (\d+) "
        r"solvers found; use fewer solvers",
        str(info.value),
    )
    assert found, info.value
    # the check precedes the count: the 101st node is searched, the 102nd refused
    assert int(found[1]) == 101
    assert 9 <= int(found[2]) <= 30


def test_progress_line_reports_a_rate(monkeypatch, verbose):
    monkeypatch.setattr(render, "PROGRESS_EVERY", 1)
    cov = build_coverage(tie_heavy_dataset(random.Random(0), 12, 30))
    verbose()
    solution = min_cover(cov)
    line = re.compile(r"min_cover: (\d+) nodes \(best size (\d+), \d+ nodes/s\)")
    matches = [line.fullmatch(text) for text in verbose()]
    assert len(matches) > 5 and all(matches)
    assert [int(m[1]) for m in matches] == list(range(1, len(matches) + 1))
    sizes = [int(m[2]) for m in matches]
    assert sizes == sorted(sizes, reverse=True) and sizes[-1] == solution.size
