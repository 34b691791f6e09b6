"""Pairwise scoring and Borda ranking, following the MiniZinc Challenge rules.

For each instance, every ordered pair of solvers splits one point: solution
quality decides first (proven-complete beats incomplete beats unsolved, and
between two incomplete solutions the better objective wins), and equal quality
falls through to a time-proportional split where each side receives the
opponent's share of the combined running time. When both sides fail, the first
of the pair takes the whole point; summed over both orderings of the pair this
awards each side 1, marking them indistinguishable on that instance.

``score_ordered`` states that rule for one ordered pair, with the quality
order ``runstore.quality_key``. Borda, the virtual best solver, the baseline
scorer and oracle coverage share one per-instance ranking of the stored runs
by that order, ``Dataset.quality_ranking``, ranked once per ingest
(``filter_solvers`` filters its parent's ranking). The last three read only a
portfolio's best group, through ``best_group``. ``borda`` walks every group
and reaches the pairwise sums without visiting every pair: it credits each
solver with the number of solvers strictly worse than it, and splits time only
inside a group of equal quality (an unsolved group's members score one point
per other member). It keeps only what a report prints, each solver's total
over the instances and its average; Borda adds up over instances, so one
instance's scores are the totals of ``borda`` on that instance alone.

The baseline scorer, oracle coverage and Borda split and compare a group's
times as integers: ``time_ticks`` scales them to tick counts over the lcm of
their denominators, which leaves every split ``u / (t + u)`` unchanged.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple

from .render import log
from .runstore import CheckedRecord, DataError, Dataset, ProblemKind, RunRecord, Status
from .runstore import quality_key, run_shape_violation

HALF = Fraction(1, 2)


class _ComparableFields(NamedTuple):
    status: Status
    time: Fraction
    objective: Fraction | None
    kind: ProblemKind


class Comparable(CheckedRecord, _ComparableFields):
    """The performance facts needed to score one side of a pairwise comparison."""

    __slots__ = ()

    def __new__(
        cls, status: Status, time: Fraction, objective: Fraction | None, kind: ProblemKind
    ) -> Comparable:
        if time.numerator < 0:  # the sign alone: cheaper than a Fraction compare
            raise DataError("comparable: negative time")
        broken = run_shape_violation(kind, status, objective)
        if broken:
            raise DataError(f"comparable: {broken}")
        return tuple.__new__(cls, (status, time, objective, kind))


def score_ordered(first: Comparable, second: Comparable) -> tuple[Fraction, Fraction]:
    """Score an ordered pair; the two scores always sum to exactly 1."""
    if first.kind is not second.kind:
        raise DataError(
            f"cannot compare {first.kind.value} against {second.kind.value}"
        )
    if first.status is Status.UNSOLVED and second.status is Status.UNSOLVED:
        return Fraction(1), Fraction(0)
    qa, qb = (quality_key(c.kind, c.status, c.objective) for c in (first, second))
    if qa > qb:
        return Fraction(1), Fraction(0)
    if qa < qb:
        return Fraction(0), Fraction(1)
    total = first.time + second.time
    if total == 0:
        return HALF, HALF
    return second.time / total, first.time / total


def run_comparable(ds: Dataset, solver_id: str, instance_id: str) -> Comparable:
    """Lift one recorded run into a Comparable."""
    run = ds.run(solver_id, instance_id)
    kind = ds.instances[instance_id].kind
    return Comparable(run.status, run.time, run.objective, kind)


def best_group(
    ds: Dataset, solvers: Iterable[str], instance_id: str
) -> list[tuple[str, RunRecord]]:
    """Runs of ``solvers`` in their best group of equal ``quality_key`` on one instance.

    The first group of ``ds.quality_ranking`` that holds a member, in id order;
    ``[]`` when that group is unsolved (or ``solvers`` is empty).
    """
    keep = set(solvers)
    for group in ds.quality_ranking[instance_id]:
        runs = [(sid, ds.runs[(sid, instance_id)]) for sid in group if sid in keep]
        if runs:
            return [] if runs[0][1].status is Status.UNSOLVED else runs
    return []


def time_ticks(times: Iterable[Fraction]) -> tuple[list[int], int]:
    """``times`` as integer tick counts over ``scale``, the lcm of their denominators.

    Returns ``(ticks, scale)`` with ``ticks[k] / scale == times[k]``. A time
    split such as ``u / (t + u)`` keeps its value over ticks, and a difference
    compares against a tolerance ``e`` as ``(t - u) * e.denominator <=
    e.numerator * scale``, so a best group is scored and covered in ``int``
    arithmetic.
    """
    times = list(times)
    scale = math.lcm(*(t.denominator for t in times))
    return [t.numerator * (scale // t.denominator) for t in times], scale


class ScoreMatrix(NamedTuple):
    """Per-solver Borda totals, summed over instances, and their per-instance averages."""

    totals: dict[str, Fraction]
    averages: dict[str, Fraction]

    def ranking(self) -> list[tuple[int, str]]:
        """(rank, solver) descending by total, ties broken by solver id."""
        order = sorted(self.totals, key=lambda s: (-self.totals[s], s))
        return [(pos + 1, sid) for pos, sid in enumerate(order)]


def _tie_group_scores(ticks: list[int], below: int) -> list[Fraction]:
    """Scores of a solved tie group's members from their ``time_ticks``, given
    ``below`` strictly worse solvers.

    Each member gets ``below`` plus its time-split shares against the others.
    Each distinct time sums its shares over one common denominator (the lcm of
    its pair totals, and 2 for the even split between equal times, zero
    included) and builds a single ``Fraction``.
    """
    counts = Counter(ticks)
    scores = {}
    for mine, count in counts.items():
        # distinct non-negative times: every pair total here is positive
        others = [(theirs, n) for theirs, n in counts.items() if theirs != mine]
        den = math.lcm(2, *(mine + theirs for theirs, _ in others))
        num = below * den + (count - 1) * (den // 2)
        num += sum(n * theirs * (den // (mine + theirs)) for theirs, n in others)
        scores[mine] = Fraction(num, den)
    return [scores[tick] for tick in ticks]


def borda(ds: Dataset) -> ScoreMatrix:
    """Sum ``score_ordered`` over every ordered solver pair per instance; total per solver.

    Each instance is scored from its ``ds.quality_ranking`` groups (they hold
    every solver of ``ds``), walked worst first: a solver gets one point per
    solver in a strictly worse group, plus its share inside its own group of
    equal quality. There, unsolved members take one point per other member (the
    ordered both-fail rule) and everyone else splits time pairwise over the
    group's ``time_ticks``. Each solver's exact total equals its pairwise sums.

    Whole-point scores (an unsolved group, or a solved run alone in its group)
    add to an ``int`` per solver; only split groups build ``Fraction`` values,
    and a solver's total is one sum of its split scores over their common
    denominator.
    """
    solvers = ds.solver_ids
    instances = ds.instance_ids
    if not solvers:
        raise DataError("borda: dataset has no solvers")
    if not instances:
        raise DataError("borda: dataset has no instances")

    n, m = len(solvers), len(instances)
    whole = dict.fromkeys(solvers, 0)
    split: dict[str, list[Fraction]] = {sid: [] for sid in solvers}
    split_pairs = 0
    for iid in instances:
        below = 0
        for group in reversed(ds.quality_ranking[iid]):
            size = len(group)
            if size == 1 or ds.runs[(group[0], iid)].status is Status.UNSOLVED:
                for sid in group:
                    whole[sid] += below + size - 1
            else:
                ticks, _ = time_ticks(ds.runs[(sid, iid)].time for sid in group)
                for sid, share in zip(group, _tie_group_scores(ticks, below)):
                    split[sid].append(share)
                split_pairs += size * (size - 1)
            below += size
    log(
        "borda: %d solvers x %d instances, %d time-split pairs of %d",
        n, m, split_pairs, n * (n - 1) * m,
    )

    totals = {}
    for sid in solvers:
        # one exact sum over a common denominator, not one reducing addition per instance
        shares = split[sid]
        den = math.lcm(*(x.denominator for x in shares))
        num = whole[sid] * den + sum(x.numerator * (den // x.denominator) for x in shares)
        totals[sid] = Fraction(num, den)
    averages = {sid: totals[sid] / m for sid in solvers}
    return ScoreMatrix(totals, averages)
