"""Virtual best solver construction and portfolio performance ratios.

A portfolio's virtual best solver (VBS) is the hypothetical solver that, on
every instance, reproduces the best run any member achieved: best solution
quality first, and the minimum time among the members reaching that quality
(running the members in parallel stops as soon as the reported quality is in
hand). ``vbs_run`` returns that run as a ``Comparable``; the members reaching
it are ``mincover.build_coverage``'s answer. Portfolio performance is the
ratio of the pairwise scores of one VBS and a baseline VBS over all instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .pairscore import HALF, Comparable, quality_groups, run_comparable, score_ordered
from .runstore import DataError, Dataset, ProblemKind, Status, known_solvers


def vbs_run(ds: Dataset, solvers: Iterable[str], instance_id: str) -> Comparable:
    """Per-instance best aggregation over a portfolio (empty portfolio: unsolved)."""
    if instance_id not in ds.instances:
        raise DataError(f"unknown instance {instance_id!r}")
    members = known_solvers(ds, solvers, "vbs_run")
    meta = ds.instances[instance_id]
    groups = quality_groups(ds, members, instance_id)
    if not groups or groups[0][0][1].status is Status.UNSOLVED:
        # nothing solved: the parallel run exhausts the time limit
        return Comparable(Status.UNSOLVED, meta.timeout, None, meta.kind)

    achievers = groups[0]
    best_time = min(comp.time for _, comp in achievers)
    objective = None
    if meta.kind.is_optimization:
        # incomplete achievers share one objective; complete ones may disagree
        best = min if meta.kind is ProblemKind.MINIMIZE else max
        objective = best(comp.objective for _, comp in achievers)
    return Comparable(achievers[0][1].status, best_time, objective, meta.kind)


@dataclass(frozen=True)
class PerfRatio:
    """Score ratio of a portfolio's VBS against a baseline VBS.

    ``tied_unsolved`` counts instances no side solved; those are scored half a
    point each (a symmetric tie) rather than by the ordered both-fail rule, so
    the ratio does not depend on argument order and equals 1 for identical
    portfolios.
    """

    numerator: Fraction
    denominator: Fraction
    value: Fraction
    tied_unsolved: int = 0


def _pair_scores(mine: Comparable, base: Comparable) -> tuple[Fraction, Fraction, bool]:
    if mine.status is Status.UNSOLVED and base.status is Status.UNSOLVED:
        return HALF, HALF, True
    sa, sb = score_ordered(mine, base)
    return sa, sb, False


def perf(ds: Dataset, portfolio: Iterable[str], baseline: Iterable[str]) -> PerfRatio:
    """Performance ratio of ``portfolio`` relative to ``baseline`` (a superset)."""
    mine = known_solvers(ds, portfolio, "perf portfolio")
    base = known_solvers(ds, baseline, "perf baseline")
    if not set(mine) <= set(base):
        raise DataError("perf: portfolio must be a subset of the baseline")
    instances = ds.instance_ids
    if not instances:
        raise DataError("perf: dataset has no instances")

    numerator = Fraction(0)
    denominator = Fraction(0)
    tied = 0
    baseline_solves = False
    for iid in instances:
        va = vbs_run(ds, mine, iid)
        vb = vbs_run(ds, base, iid)
        if vb.status is not Status.UNSOLVED:
            baseline_solves = True
        sa, sb, both_unsolved = _pair_scores(va, vb)
        numerator += sa
        denominator += sb
        tied += both_unsolved
    if not baseline_solves:
        raise DataError("perf: baseline portfolio solves no instance")
    return PerfRatio(numerator, denominator, numerator / denominator, tied)


class SubsetScorer:
    """Exact integer evaluator of many subsets of a solver space against one baseline.

    For each candidate solver and instance, the pairwise score of that solver's
    run against the baseline VBS is precomputed once. Because candidates never
    beat the baseline they sit inside, a subset's per-instance score is the
    maximum of its members' precomputed scores.

    The scores are kept as ``int`` rows over one common denominator
    ``denominator`` (D, the lcm of every score's denominator): ``rows[j][i]``
    is solver j's score on instance i times D. A subset's total score is then
    the integer ``sum(max over members)`` over D, costing
    O(|subset| * |instances|) plain integer operations. A ``Fraction`` is built
    only at the boundary (``value_from_numerator``, ``ratio_from_numerator``,
    ``evaluate``), so every result is exact.
    """

    def __init__(self, ds: Dataset, space: Iterable[str], baseline: Iterable[str]):
        self.space = known_solvers(ds, space, "scorer space")
        self.baseline = known_solvers(ds, baseline, "scorer baseline")
        if not set(self.space) <= set(self.baseline):
            raise DataError("scorer: space must be a subset of the baseline")
        self.instances = ds.instance_ids
        if not self.instances:
            raise DataError("scorer: dataset has no instances")

        self.tied_unsolved = 0
        baseline_solves = False
        scores: list[list[Fraction]] = [[] for _ in self.space]
        for iid in self.instances:
            vb = vbs_run(ds, self.baseline, iid)
            if vb.status is not Status.UNSOLVED:
                baseline_solves = True
            else:
                self.tied_unsolved += 1
            for idx, sid in enumerate(self.space):
                sa, _, _ = _pair_scores(run_comparable(ds, sid, iid), vb)
                scores[idx].append(sa)
        if not baseline_solves:
            raise DataError("scorer: baseline portfolio solves no instance")
        self.denominator = lcm(*(x.denominator for row in scores for x in row))
        self.rows = [
            [x.numerator * (self.denominator // x.denominator) for x in row] for row in scores
        ]
        self._total = len(self.instances) * self.denominator

    def value_from_numerator(self, numerator: int) -> Fraction:
        """Performance ratio of a subset whose total score is ``numerator / denominator``."""
        return Fraction(numerator, self._total - numerator)

    def ratio_from_numerator(self, numerator: int) -> PerfRatio:
        """PerfRatio of a subset whose total score is ``numerator / denominator``."""
        return PerfRatio(
            Fraction(numerator, self.denominator),
            Fraction(self._total - numerator, self.denominator),
            self.value_from_numerator(numerator),
            self.tied_unsolved,
        )

    def evaluate_mask(self, mask: int) -> int:
        """Total score, times ``denominator``, of the subset encoded as a bitmask over space."""
        if mask == 0:
            raise DataError("scorer: cannot evaluate an empty subset")
        member_rows = [row for idx, row in enumerate(self.rows) if mask >> idx & 1]
        return sum(map(max, zip(*member_rows)))

    def evaluate(self, subset: Iterable[str]) -> PerfRatio:
        """PerfRatio of a subset given by solver ids."""
        index = {sid: idx for idx, sid in enumerate(self.space)}
        mask = 0
        for sid in subset:
            if sid not in index:
                raise DataError(f"scorer: solver {sid!r} is not in the search space")
            mask |= 1 << index[sid]
        return self.ratio_from_numerator(self.evaluate_mask(mask))
