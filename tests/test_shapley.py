import pickle
import random
import re
import sys
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

import pytest

from portview import shapley
from portview.portfolio import SubsetScorer, perf
from portview.runstore import (
    DataError,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    build_dataset,
)
from portview.shapley import (
    ShapleyMode,
    _coprime_fraction,
    _exact_seconds,
    shapley_exact,
    shapley_sampled,
)
from randgen import make_dataset, random_subset, tie_heavy_dataset
from reference import reference_perf, reference_shapley_exact, reference_shapley_sampled


def worked_example_dataset():
    """Two solvers with coalition values v(a)=1/2, v(b)=3/10, v(ab)=1."""
    instances = [InstanceMeta(f"i{j}", ProblemKind.DECISION, Fraction(100)) for j in (1, 2, 3)]
    runs = [
        RunRecord("a", "i1", Status.COMPLETE, Fraction(5)),
        RunRecord("a", "i2", Status.COMPLETE, Fraction(5)),
        RunRecord("b", "i2", Status.COMPLETE, Fraction(21)),
        RunRecord("b", "i3", Status.COMPLETE, Fraction(7)),
    ]
    return build_dataset(instances, {"a": True, "b": True}, runs)


def definitional_shapley(ds, portfolio, baseline):
    """Independent oracle: the textbook double loop over coalitions per player."""
    players = tuple(sorted(portfolio))
    n = len(players)

    def v(subset):
        return reference_perf(ds, subset, baseline).value if subset else Fraction(0)

    phi = {}
    for player in players:
        others = [p for p in players if p != player]
        total = Fraction(0)
        for r in range(len(others) + 1):
            weight = Fraction(factorial(r) * factorial(n - r - 1), factorial(n))
            for combo in combinations(others, r):
                total += weight * (v(combo + (player,)) - v(combo))
        phi[player] = total
    return phi


def test_worked_example_coalition_values():
    ds = worked_example_dataset()
    both = ds.solver_ids
    assert perf(ds, ["a"], both).value == Fraction(1, 2)
    assert perf(ds, ["b"], both).value == Fraction(3, 10)
    assert perf(ds, both, both).value == 1


def test_worked_example_exact_values():
    ds = worked_example_dataset()
    report = shapley_exact(ds, ds.solver_ids, ds.solver_ids)
    assert report.values == {"a": Fraction(3, 5), "b": Fraction(2, 5)}
    assert report.mode is ShapleyMode.EXACT


def test_worked_example_unweighted_sum_mode():
    ds = worked_example_dataset()
    report = shapley_exact(ds, ds.solver_ids, ds.solver_ids, ShapleyMode.SUM)
    assert report.values == {"a": Fraction(6, 5), "b": Fraction(4, 5)}


def test_singleton_portfolio_gets_its_own_value():
    ds = worked_example_dataset()
    report = shapley_exact(ds, ["a"], ds.solver_ids)
    assert report.values == {"a": reference_perf(ds, ["a"], ds.solver_ids).value}
    summed = shapley_exact(ds, ["a"], ds.solver_ids, ShapleyMode.SUM)
    assert summed.values == report.values  # modes coincide for one player


def _with_extra_solver(ds, sid, runs_for):
    solvers = dict(ds.solvers)
    solvers[sid] = False
    runs = [r for _, r in sorted(ds.runs.items())]
    runs.extend(runs_for)
    return build_dataset(list(ds.instances.values()), solvers, runs)


def _with_dummy(ds, sid="zzdummy"):
    return _with_extra_solver(ds, sid, [])  # missing pairs become UNSOLVED


def _with_twin(ds, src, twin):
    clones = [
        RunRecord(twin, iid, ds.run(src, iid).status, ds.run(src, iid).time, ds.run(src, iid).objective)
        for iid in ds.instance_ids
    ]
    return _with_extra_solver(ds, twin, clones)


def test_null_player_gets_zero():
    rng = random.Random(11)
    for _ in range(10):
        base = make_dataset(rng, max_solvers=4, max_instances=5, solve_all_solver=True)
        ds = _with_dummy(base)
        report = shapley_exact(ds, ds.solver_ids, ds.solver_ids)
        assert report.values["zzdummy"] == 0


def test_twin_solvers_get_identical_values():
    rng = random.Random(13)
    for _ in range(10):
        base = make_dataset(rng, max_solvers=4, max_instances=5, solve_all_solver=True)
        src = base.solver_ids[0]
        ds = _with_twin(base, src, "zztwin")
        report = shapley_exact(ds, ds.solver_ids, ds.solver_ids)
        assert report.values[src] == report.values["zztwin"]


def test_efficiency_sums_to_full_value():
    rng = random.Random(17)
    for _ in range(15):
        ds = make_dataset(rng, max_solvers=6, max_instances=6, solve_all_solver=True)
        portfolio = random_subset(rng, ds.solver_ids, allow_empty=False)
        report = shapley_exact(ds, portfolio, ds.solver_ids)
        total = sum(report.values.values())
        assert total == reference_perf(ds, portfolio, ds.solver_ids).value


def test_exact_matches_definitional_double_loop():
    rng = random.Random(19)
    for _ in range(8):
        n = rng.randint(1, 6)
        ds = make_dataset(rng, n_solvers=n, max_instances=5, solve_all_solver=True)
        report = shapley_exact(ds, ds.solver_ids, ds.solver_ids)
        oracle = definitional_shapley(ds, ds.solver_ids, ds.solver_ids)
        assert report.values == oracle


def test_sampled_close_to_exact_on_worked_example():
    ds = worked_example_dataset()
    report = shapley_sampled(ds, ds.solver_ids, ds.solver_ids, samples=10_000, rng_seed=7)
    assert report.sample_count == 10_000
    assert abs(report.values["a"] - 0.6) < 0.02
    assert abs(report.values["b"] - 0.4) < 0.02


def test_single_sample_is_one_permutation_marginal():
    ds = worked_example_dataset()
    report = shapley_sampled(ds, ds.solver_ids, ds.solver_ids, samples=1, rng_seed=3)
    va = Fraction(1, 2)
    vb = Fraction(3, 10)
    orderings = [
        {"a": float(va), "b": float(1 - va)},
        {"a": float(1 - vb), "b": float(vb)},
    ]
    assert any(
        abs(report.values["a"] - o["a"]) < 1e-12 and abs(report.values["b"] - o["b"]) < 1e-12
        for o in orderings
    )


def test_sampled_deterministic_for_fixed_seed():
    rng = random.Random(23)
    ds = make_dataset(rng, n_solvers=4, n_instances=5, solve_all_solver=True)
    one = shapley_sampled(ds, ds.solver_ids, ds.solver_ids, samples=50, rng_seed=9)
    two = shapley_sampled(ds, ds.solver_ids, ds.solver_ids, samples=50, rng_seed=9)
    assert one.values == two.values


def test_sampled_twins_converge():
    rng = random.Random(29)
    base = make_dataset(rng, n_solvers=3, n_instances=4, solve_all_solver=True)
    ds = _with_twin(base, base.solver_ids[0], "zztwin")
    report = shapley_sampled(ds, ds.solver_ids, ds.solver_ids, samples=4000, rng_seed=1)
    assert abs(report.values[base.solver_ids[0]] - report.values["zztwin"]) < 0.05


def test_sampled_totals_telescope_to_full_value():
    rng = random.Random(31)
    ds = make_dataset(rng, n_solvers=4, n_instances=5, solve_all_solver=True)
    report = shapley_sampled(ds, ds.solver_ids, ds.solver_ids, samples=25, rng_seed=5)
    full = float(reference_perf(ds, ds.solver_ids, ds.solver_ids).value)
    assert abs(sum(report.values.values()) - full) < 1e-9


def test_guards():
    rng = random.Random(37)
    ds = make_dataset(rng, n_solvers=2, n_instances=2, solve_all_solver=True)
    with pytest.raises(DataError, match="samples"):
        shapley_sampled(ds, ds.solver_ids, ds.solver_ids, samples=0)
    with pytest.raises(DataError, match="sampled"):
        shapley_exact(ds, ds.solver_ids, ds.solver_ids, ShapleyMode.SAMPLED)
    with pytest.raises(DataError, match="subset"):
        shapley_exact(ds, ds.solver_ids, [ds.solver_ids[0]])

    instances = [InstanceMeta("i1", ProblemKind.DECISION, Fraction(10))]
    solvers = {f"s{j:02d}": True for j in range(23)}
    runs = [RunRecord(sid, "i1", Status.COMPLETE, Fraction(1)) for sid in solvers]
    big = build_dataset(instances, solvers, runs)
    with pytest.raises(DataError, match="guard"):
        shapley_exact(big, big.solver_ids, big.solver_ids)


def test_exact_cost_estimate_follows_its_calibration():
    from portview.shapley import EXACT_BUDGET_S

    den = 2**2376  # 100 * den has 2,384 bits
    at_12 = _exact_seconds(12, 100, den)
    assert 18.2 < at_12 < 18.3 < EXACT_BUDGET_S  # 18 s of sums, 0.25 s of coalitions
    assert 13.8 < _exact_seconds(14, 100, den) / at_12 < 13.9
    # 14 random players over 100 instances took 56 s with 1,801-bit scores
    assert _exact_seconds(14, 100, den) > EXACT_BUDGET_S
    # 13 took 26-28 s with 1,957-bit scores, which the parent's estimate refused
    assert 28 < _exact_seconds(13, 100, 2**1950) < EXACT_BUDGET_S
    # many players over one instance: the per-coalition cost alone is over budget
    assert _exact_seconds(23, 1, 2) > EXACT_BUDGET_S
    assert _exact_seconds(10**4, 100, den) == float("inf")


def definitional_marginal_sum(ds, portfolio, baseline):
    """Independent oracle for sum mode: every marginal contribution counted once."""
    players = tuple(sorted(portfolio))

    def v(subset):
        return reference_perf(ds, subset, baseline).value if subset else Fraction(0)

    phi = {}
    for player in players:
        others = [p for p in players if p != player]
        phi[player] = sum(
            (
                v(combo + (player,)) - v(combo)
                for r in range(len(others) + 1)
                for combo in combinations(others, r)
            ),
            Fraction(0),
        )
    return phi


def test_exact_and_sum_match_definitional_loops_at_realistic_size(monkeypatch):
    """Six of 8 solvers x 100 instances against the 8-solver baseline, both modes."""
    ds = make_dataset(random.Random(7), n_solvers=8, n_instances=100)
    portfolio = ds.solver_ids[:6]
    baseline = ds.solver_ids
    # the oracles ask for each coalition many times; score each one once
    fresh_perf = reference_perf
    memo = {}

    def perf_once(ds, subset, baseline):
        key = frozenset(subset)
        if key not in memo:
            memo[key] = fresh_perf(ds, subset, baseline)
        return memo[key]

    monkeypatch.setitem(globals(), "reference_perf", perf_once)
    report = shapley_exact(ds, portfolio, baseline)
    assert report.values == definitional_shapley(ds, portfolio, baseline)
    assert sum(report.values.values()) == perf_once(ds, portfolio, baseline).value
    summed = shapley_exact(ds, portfolio, baseline, ShapleyMode.SUM)
    assert summed.values == definitional_marginal_sum(ds, portfolio, baseline)


def _assert_exact_and_sum_equal_reference(ds, portfolio, baseline):
    for mode in (ShapleyMode.EXACT, ShapleyMode.SUM):
        report = shapley_exact(ds, portfolio, baseline, mode)
        assert report.values == reference_shapley_exact(ds, portfolio, baseline, mode)


def test_exact_and_sum_equal_reference_for_zero_to_nine_solvers():
    rng = random.Random(41)
    for n in range(10):
        m = 100 if n >= 7 else rng.randint(1, 100)
        ds = make_dataset(rng, n_solvers=n + 2, n_instances=m, solve_all_solver=True)
        _assert_exact_and_sum_equal_reference(ds, rng.sample(ds.solver_ids, n), ds.solver_ids)


def _with_finer_times(ds, grain, rng):
    """Each run time scaled by a random factor in (1/2, 1] on a grid of 1/grain."""
    runs = []
    for _, r in sorted(ds.runs.items()):
        time = r.time * Fraction(grain - rng.randrange(grain // 2 + 1), grain)
        runs.append(RunRecord(r.solver_id, r.instance_id, r.status, time, r.objective))
    return build_dataset(list(ds.instances.values()), dict(ds.solvers), runs)


@pytest.mark.parametrize("grain", [1, 10**9])
def test_exact_and_sum_equal_reference_however_high_the_integer_fold_goes(grain):
    """Grain 1 keeps the generated times; grain 10^9 gives every score a large
    denominator, so the q_S and the integers folded up the lcm tree run to
    thousands of bits."""
    rng = random.Random(59)
    fine = random.Random(grain)
    for n in (1, 2, 3, 6, 8):
        ds = make_dataset(rng, n_solvers=n + 1, n_instances=60, solve_all_solver=True)
        ds = _with_finer_times(ds, grain, fine)
        _assert_exact_and_sum_equal_reference(ds, rng.sample(ds.solver_ids, n), ds.solver_ids)
    ties = _with_finer_times(tie_heavy_dataset(rng, n_solvers=8, n_instances=50), grain, fine)
    _assert_exact_and_sum_equal_reference(ties, ties.solver_ids[:5], ties.solver_ids)


def test_values_are_reduced_when_coalition_denominators_share_primes():
    """A twin repeats coalition values, so many q_S are equal or share primes."""
    rng = random.Random(61)
    ties = tie_heavy_dataset(rng, n_solvers=7, n_instances=40)
    ds = _with_dummy(_with_twin(_with_twin(ties, "s00", "zztwin"), "s01", "zztwin2"))
    portfolio = ("s00", "s01", "s02", "zztwin", "zztwin2", "zzdummy")
    for mode in (ShapleyMode.EXACT, ShapleyMode.SUM):
        values = shapley_exact(ds, portfolio, ds.solver_ids, mode).values
        assert values == reference_shapley_exact(ds, portfolio, ds.solver_ids, mode)
        assert values["s00"] == values["zztwin"] and values["s01"] == values["zztwin2"]
        for value in values.values():
            assert value.denominator > 0 and gcd(value.numerator, value.denominator) == 1


COPRIME_PAIRS = [(0, 1), (3, 5), (-7, 2), (2**521 - 1, 3**200), (-(3**150), 2**300 + 1)]


@pytest.mark.parametrize("numerator, denominator", COPRIME_PAIRS)
def test_coprime_fraction_is_the_reduced_fraction(numerator, denominator):
    value = _coprime_fraction(numerator, denominator)
    expected = Fraction(numerator, denominator)
    assert type(value) is Fraction and value == expected
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
    assert hash(value) == hash(expected) and str(value) == str(expected)
    copied = pickle.loads(pickle.dumps(value))
    assert type(copied) is Fraction and copied == expected and hash(copied) == hash(expected)
    assert (copied.numerator, copied.denominator) == (numerator, denominator)


def test_exact_values_are_the_same_through_the_public_constructor(monkeypatch):
    """The slot is found on every verified CPython; where it is not, the public
    constructor builds each value, and they equal the slot's on a small grid."""
    assert shapley._DENOMINATOR_SLOT or sys.version_info >= (3, 14)
    ds = make_dataset(random.Random(71), n_solvers=5, n_instances=20)
    modes = (ShapleyMode.EXACT, ShapleyMode.SUM)
    with_slot = [shapley_exact(ds, ds.solver_ids, ds.solver_ids, mode).values for mode in modes]
    monkeypatch.setattr(shapley, "_DENOMINATOR_SLOT", False)
    built = [shapley_exact(ds, ds.solver_ids, ds.solver_ids, mode).values for mode in modes]
    assert built == with_slot  # equal numerators and denominators: the slot's are reduced


def test_exact_logs_its_coalitions_denominator_and_estimate(verbose):
    ds = make_dataset(random.Random(67), n_solvers=5, n_instances=30, solve_all_solver=True)
    verbose()
    report = shapley_exact(ds, ds.solver_ids, ds.solver_ids)
    (line,) = verbose()
    pattern = r"shapley_exact: (\d+) coalitions, (\d+)-bit denominator, estimate (\S+) s"
    match = re.fullmatch(pattern, line)
    assert match and int(match[1]) == 31 and len(report.values) == 5
    players = ds.solver_ids
    coalitions = [c for size in range(1, 6) for c in combinations(players, size)]
    q_lcm = lcm(*(reference_perf(ds, c, players).value.denominator for c in coalitions))
    assert int(match[2]) == (factorial(5) * q_lcm).bit_length()
    estimate = _exact_seconds(5, 30, SubsetScorer(ds, players, players).denominator)
    assert match[3] == f"{estimate:.3g}"


def test_exact_and_sum_equal_reference_on_ties_unsolved_columns_and_null_rows():
    rng = random.Random(43)
    # every tenth instance is solved by nobody: an all-1/2 column
    ties = tie_heavy_dataset(rng, n_solvers=10, n_instances=100)
    _assert_exact_and_sum_equal_reference(ties, ties.solver_ids[:7], ties.solver_ids)
    with_dummy = _with_dummy(ties)
    portfolio = ("s01", "s04", "zzdummy")
    _assert_exact_and_sum_equal_reference(with_dummy, portfolio, with_dummy.solver_ids)
    # s00 solves everything, so the dummy's row is all zero: a null player
    ds = _with_dummy(make_dataset(rng, n_solvers=6, n_instances=60, solve_all_solver=True))
    _assert_exact_and_sum_equal_reference(ds, ds.solver_ids, ds.solver_ids)
    assert shapley_exact(ds, ds.solver_ids, ds.solver_ids).values["zzdummy"] == 0


def test_sampled_equals_dense_reference_bit_for_bit():
    rng = random.Random(47)
    ties = _with_dummy(tie_heavy_dataset(rng, n_solvers=9, n_instances=100))
    null = _with_dummy(make_dataset(rng, n_solvers=5, n_instances=40, solve_all_solver=True))
    for ds in (ties, null):
        portfolio = ds.solver_ids[-6:]
        for samples, seed in ((1, 0), (1, 5), (7, 3), (300, 11)):
            args = (ds, portfolio, ds.solver_ids, samples, seed)
            assert shapley_sampled(*args).values == reference_shapley_sampled(*args)


def test_exact_scores_no_coalition_through_evaluate_mask(monkeypatch):
    calls = []
    evaluate_mask = SubsetScorer.evaluate_mask

    def counted(self, mask):
        calls.append(mask)
        return evaluate_mask(self, mask)

    monkeypatch.setattr(SubsetScorer, "evaluate_mask", counted)
    ds = make_dataset(random.Random(53), n_solvers=8, n_instances=100, solve_all_solver=True)
    report = shapley_exact(ds, ds.solver_ids, ds.solver_ids)
    assert len(report.values) == 8
    assert len(calls) <= 1


def test_sampled_attribution_of_an_empty_portfolio_is_empty():
    ds = worked_example_dataset()
    report = shapley_sampled(ds, [], ds.solver_ids, samples=5)
    assert report == ({}, ShapleyMode.SAMPLED, (), ("a", "b"), 5)


def test_sampled_over_its_work_budget_is_refused(monkeypatch):
    """Worked example: 2 players at 13 units and 4 non-zero scores, so 30 work units a sample."""
    ds = worked_example_dataset()
    monkeypatch.setattr(shapley, "SAMPLED_WORK_BUDGET", 60)
    assert shapley_sampled(ds, ds.solver_ids, ds.solver_ids, samples=2).sample_count == 2
    with pytest.raises(DataError) as info:
        shapley_sampled(ds, ds.solver_ids, ds.solver_ids, samples=3)
    assert str(info.value) == (
        "shapley_sampled: 3 samples of 2 solvers with 4 non-zero scores are 90 work units, "
        "over the budget of 60; use --samples 2 or fewer"
    )
