"""Virtual best solver construction and portfolio performance ratios.

A portfolio's virtual best solver (VBS) is the hypothetical solver that, on
every instance, reproduces the best run any member achieved: best solution
quality first, and the minimum time among the members reaching that quality
(running the members in parallel stops as soon as the reported quality is in
hand). ``vbs_run`` returns that run as a ``Comparable``; the members reaching
it are ``mincover.build_coverage``'s answer.

Portfolio performance is the ratio of the pairwise scores of one VBS and a
baseline VBS over all instances. A run's score against VBS(baseline) depends
only on the baseline's ``best_group`` on that instance, so ``SubsetScorer``
scores every run from that group alone, splitting its times as integer
``time_ticks``, and ``perf`` is one scorer evaluation of the whole portfolio's
mask.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .pairscore import Comparable, best_group, time_ticks
from .runstore import DataError, Dataset, ProblemKind, Status, known_solvers


def vbs_run(ds: Dataset, solvers: Iterable[str], instance_id: str) -> Comparable:
    """Per-instance best aggregation over a portfolio (empty portfolio: unsolved)."""
    if instance_id not in ds.instances:
        raise DataError(f"unknown instance {instance_id!r}")
    members = known_solvers(ds, solvers, "vbs_run")
    meta = ds.instances[instance_id]
    achievers = best_group(ds, members, instance_id)
    if not achievers:
        # nothing solved: the parallel run exhausts the time limit
        return Comparable(Status.UNSOLVED, meta.timeout, None, meta.kind)

    best_time = min(comp.time for _, comp in achievers)
    objective = None
    if meta.kind.is_optimization:
        # incomplete achievers share one objective; complete ones may disagree
        best = min if meta.kind is ProblemKind.MINIMIZE else max
        objective = best(comp.objective for _, comp in achievers)
    return Comparable(achievers[0][1].status, best_time, objective, meta.kind)


class PerfRatio(NamedTuple):
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


def perf(ds: Dataset, portfolio: Iterable[str], baseline: Iterable[str]) -> PerfRatio:
    """Performance ratio of ``portfolio`` relative to ``baseline`` (a superset)."""
    scorer = SubsetScorer(ds, portfolio, baseline)
    return scorer.ratio_from_numerator(scorer.evaluate_mask((1 << len(scorer.space)) - 1))


class SubsetScorer:
    """Exact integer evaluator of many subsets of a solver space against one baseline.

    A run's pairwise score against the baseline VBS depends only on the
    baseline's ``best_group`` on that instance, whose minimum time ``fastest``
    is the VBS time:

    * when the baseline solves nothing there, every run scores 1/2 (a
      tied-unsolved instance);
    * a solver outside the group scores 0;
    * a solver inside it with time t scores ``fastest / (t + fastest)``, or 1/2
      when both times are 0.

    A subset's VBS reaches that group exactly when a member does, at its
    fastest member's time, so its per-instance score is the maximum of its
    members' scores. The empty subset's VBS solves nothing: it scores 1/2 on
    the tied-unsolved instances and 0 elsewhere.

    Each member's score is ``F / (T + F)`` over the group's ``time_ticks``
    (``F`` the fastest tick count), reduced once with ``gcd``; no ``Fraction``
    is built or compared. The scores are kept as ``int`` rows over one common
    denominator ``denominator`` (D, the lcm of the members' score denominators,
    and of 2 when an instance is tied unsolved): ``rows[j][i]``
    is solver j's score on instance i times D. A subset's total score is then
    the integer ``sum(max over members)`` over D, costing
    O(|subset| * |instances|) plain integer operations. Subsets go in as
    bitmasks over ``space`` (``evaluate_mask``), and a ``Fraction`` is built
    only on the way out (``ratio_from_numerator``), so every result is exact.
    """

    def __init__(self, ds: Dataset, space: Iterable[str], baseline: Iterable[str]):
        self.space = known_solvers(ds, space, "scorer space")
        self.baseline = known_solvers(ds, baseline, "scorer baseline")
        if not set(self.space) <= set(self.baseline):
            raise DataError("scorer: space must be a subset of the baseline")
        self.instances = ds.instance_ids
        if not self.instances:
            raise DataError("scorer: dataset has no instances")

        position = {sid: j for j, sid in enumerate(self.space)}
        # (row, column, numerator, denominator) of each reduced member score
        scored: list[tuple[int, int, int, int]] = []
        tied: list[int] = []
        for i, iid in enumerate(self.instances):
            group = best_group(ds, self.baseline, iid)
            if not group:
                tied.append(i)
                continue
            ticks, _ = time_ticks(run.time for _, run in group)
            fastest = min(ticks)
            for (sid, _), t in zip(group, ticks):
                j = position.get(sid)
                if j is None:
                    continue
                total = t + fastest
                if total:
                    g = gcd(fastest, total)
                    scored.append((j, i, fastest // g, total // g))
                else:
                    scored.append((j, i, 1, 2))
        self.tied_unsolved = len(tied)
        if self.tied_unsolved == len(self.instances):
            raise DataError("scorer: baseline portfolio solves no instance")
        # the 2 keeps the empty subset's half points integral when the space is empty
        self.denominator = lcm(2 if tied else 1, *(den for *_, den in scored))
        self.rows = [[0] * len(self.instances) for _ in self.space]
        half = self.denominator // 2
        for row in self.rows:
            for i in tied:
                row[i] = half
        for j, i, num, den in scored:
            self.rows[j][i] = num * (self.denominator // den)
        self._total = len(self.instances) * self.denominator

    def ratio_from_numerator(self, numerator: int) -> PerfRatio:
        """PerfRatio of a subset whose total score is ``numerator / denominator``."""
        return PerfRatio(
            Fraction(numerator, self.denominator),
            Fraction(self._total - numerator, self.denominator),
            Fraction(numerator, self._total - numerator),
            self.tied_unsolved,
        )

    def evaluate_mask(self, mask: int) -> int:
        """Total score, times ``denominator``, of the subset encoded as a bitmask over space.

        Mask 0 is the empty subset: half a point on each tied-unsolved instance.
        """
        if mask == 0:
            return self.tied_unsolved * self.denominator // 2
        member_rows = [row for idx, row in enumerate(self.rows) if mask >> idx & 1]
        return sum(map(max, zip(*member_rows)))
