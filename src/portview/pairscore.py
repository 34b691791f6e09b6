"""Pairwise scoring and Borda ranking, following the MiniZinc Challenge rules.

For each instance, every ordered pair of solvers splits one point: solution
quality decides first (proven-complete beats incomplete beats unsolved, and
between two incomplete solutions the better objective wins), and equal quality
falls through to a time-proportional split where each side receives the
opponent's share of the combined running time. When both sides fail, the first
of the pair takes the whole point; summed over both orderings of the pair this
awards each side 1, marking them indistinguishable on that instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .runstore import DataError, Dataset, ProblemKind, Status, run_shape_violation

HALF = Fraction(1, 2)
_STATUS_RANK = {Status.UNSOLVED: 0, Status.INCOMPLETE: 1, Status.COMPLETE: 2}


@dataclass(frozen=True)
class Comparable:
    """The performance facts needed to score one side of a pairwise comparison."""

    status: Status
    time: Fraction
    objective: Fraction | None
    kind: ProblemKind

    def __post_init__(self) -> None:
        if self.time < 0:
            raise DataError("comparable: negative time")
        broken = run_shape_violation(self.kind, self.status, self.objective)
        if broken:
            raise DataError(f"comparable: {broken}")


def quality_key(c: Comparable) -> tuple[int, Fraction]:
    """Totally ordered solution quality; larger is better.

    Only two incomplete solutions compare by objective: a proven-complete run
    outranks any incomplete one regardless of recorded objective values.
    """
    rank = _STATUS_RANK[c.status]
    if c.status is Status.INCOMPLETE:
        adj = -c.objective if c.kind is ProblemKind.MINIMIZE else c.objective
    else:
        adj = Fraction(0)
    return rank, adj


def score_ordered(first: Comparable, second: Comparable) -> tuple[Fraction, Fraction]:
    """Score an ordered pair; the two scores always sum to exactly 1."""
    if first.kind is not second.kind:
        raise DataError(
            f"cannot compare {first.kind.value} against {second.kind.value}"
        )
    if first.status is Status.UNSOLVED and second.status is Status.UNSOLVED:
        return Fraction(1), Fraction(0)
    qa, qb = quality_key(first), quality_key(second)
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


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-instance pairwise totals plus per-solver totals and averages."""

    per_instance: dict[tuple[str, str], Fraction]
    totals: dict[str, Fraction]
    averages: dict[str, Fraction]

    def ranking(self) -> list[tuple[int, str]]:
        """(rank, solver) descending by total, ties broken by solver id."""
        order = sorted(self.totals, key=lambda s: (-self.totals[s], s))
        return [(pos + 1, sid) for pos, sid in enumerate(order)]


def borda(ds: Dataset) -> ScoreMatrix:
    """Score every ordered solver pair on every instance and total per solver."""
    solvers = ds.solver_ids
    instances = ds.instance_ids
    if not solvers:
        raise DataError("borda: dataset has no solvers")
    if not instances:
        raise DataError("borda: dataset has no instances")

    per_instance: dict[tuple[str, str], Fraction] = {}
    for iid in instances:
        comps = {sid: run_comparable(ds, sid, iid) for sid in solvers}
        for sid in solvers:
            score = Fraction(0)
            for other in solvers:
                if other != sid:
                    score += score_ordered(comps[sid], comps[other])[0]
            per_instance[(sid, iid)] = score

    totals = {
        sid: sum((per_instance[(sid, iid)] for iid in instances), Fraction(0))
        for sid in solvers
    }
    averages = {sid: totals[sid] / len(instances) for sid in solvers}
    return ScoreMatrix(per_instance, totals, averages)
