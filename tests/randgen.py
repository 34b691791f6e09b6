"""Seeded random dataset generation for property tests.

Generated data is internally consistent: proven-complete runs on the same
optimization instance share the true optimum, and incomplete objectives are
never better than it. Exact duplicate runs and coarse time grids are injected
deliberately so that tie-handling paths get exercised. ``tie_heavy_dataset``
gives up that consistency for more ties: its proven-complete runs may disagree
on the objective.
"""

from __future__ import annotations

import random
from fractions import Fraction

from portview.runstore import (
    Dataset,
    InstanceMeta,
    ProblemKind,
    RunRecord,
    Status,
    build_dataset,
)

KINDS = (ProblemKind.DECISION, ProblemKind.MINIMIZE, ProblemKind.MAXIMIZE)


def random_time(rng: random.Random, timeout: Fraction) -> Fraction:
    if rng.random() < 0.5:
        return Fraction(rng.randint(0, int(timeout)))
    return Fraction(rng.randint(0, int(timeout * 1000)), 1000)


def make_dataset(
    rng: random.Random,
    n_solvers: int | None = None,
    n_instances: int | None = None,
    max_solvers: int = 6,
    max_instances: int = 8,
    solve_all_solver: bool = False,
) -> Dataset:
    """Random consistent dataset; ``solve_all_solver`` forces s00 to solve everything."""
    n = n_solvers if n_solvers is not None else rng.randint(1, max_solvers)
    m = n_instances if n_instances is not None else rng.randint(1, max_instances)
    solver_flags = {f"s{j:02d}": rng.random() < 0.7 for j in range(n)}
    instances = []
    runs = []
    for i in range(m):
        iid = f"i{i:02d}"
        kind = rng.choice(KINDS)
        timeout = Fraction(rng.randint(5, 60))
        instances.append(InstanceMeta(iid, kind, timeout))
        optimum = Fraction(rng.randint(-10, 10))
        produced: list[RunRecord] = []
        for sid in sorted(solver_flags):
            if produced and rng.random() < 0.15:
                twin = rng.choice(produced)
                rec = RunRecord(sid, iid, twin.status, twin.time, twin.objective)
            else:
                rec = _random_run(rng, sid, iid, kind, timeout, optimum)
            if solve_all_solver and sid == "s00" and rec.status is Status.UNSOLVED:
                objective = optimum if kind.is_optimization else None
                rec = RunRecord(sid, iid, Status.COMPLETE, random_time(rng, timeout), objective)
            produced.append(rec)
            runs.append(rec)
    return build_dataset(instances, solver_flags, runs)


def _random_run(rng, sid, iid, kind, timeout, optimum) -> RunRecord:
    roll = rng.random()
    if roll < 0.4:
        objective = optimum if kind.is_optimization else None
        return RunRecord(sid, iid, Status.COMPLETE, random_time(rng, timeout), objective)
    if roll < 0.65 and kind.is_optimization:
        delta = Fraction(rng.randint(0, 5))
        objective = optimum + delta if kind is ProblemKind.MINIMIZE else optimum - delta
        return RunRecord(sid, iid, Status.INCOMPLETE, random_time(rng, timeout), objective)
    return RunRecord(sid, iid, Status.UNSOLVED, timeout)


def tie_heavy_dataset(rng: random.Random, n_solvers: int, n_instances: int) -> Dataset:
    """Coarse and zero times, few objective values, proven-complete runs that
    disagree on the objective, and every tenth instance solved by nobody."""
    solvers = {f"s{j:02d}": rng.random() < 0.7 for j in range(n_solvers)}
    instances, runs = [], []
    for i in range(n_instances):
        iid = f"i{i:03d}"
        kind = KINDS[i % 3]
        instances.append(InstanceMeta(iid, kind, Fraction(60)))
        if i % 10 == 0:
            continue  # left to build_dataset, which records UNSOLVED runs
        for sid in solvers:
            time = rng.choice(
                [Fraction(0), Fraction(10 * rng.randint(0, 6)), Fraction(rng.randint(0, 600), 10)]
            )
            roll = rng.random()
            if roll < 0.3:
                runs.append(RunRecord(sid, iid, Status.UNSOLVED, time))
            elif roll < 0.6 and kind.is_optimization:
                objective = Fraction(rng.randint(0, 2))
                runs.append(RunRecord(sid, iid, Status.INCOMPLETE, time, objective))
            else:
                objective = Fraction(rng.randint(0, 2)) if kind.is_optimization else None
                runs.append(RunRecord(sid, iid, Status.COMPLETE, time, objective))
    return build_dataset(instances, solvers, runs)


def random_subset(rng: random.Random, items, allow_empty: bool = True):
    chosen = [x for x in items if rng.random() < 0.5]
    if not chosen and not allow_empty and items:
        chosen = [rng.choice(list(items))]
    return tuple(sorted(chosen))
