"""Seeded dataset generators for the benchmark workloads.

Two shapes, both built through ``portview.runstore.build_dataset`` so the
program's own validation applies to every generated run, and ``relabel``,
which gives a dataset's runs new solver and instance ids:

* ``random_grid``: independent random runs on a mixed second/millisecond time
  grid, with about 15% of runs copied from an earlier solver on the same
  instance. Few ties, so minimum covers come out full size and exact
  rationals grow large.
* ``family_ties``: instances come in families, each with a specialist and a
  near-clone that ties it on about 99% of the family. Generalists are slower
  or unsolved. All times sit on a 10 s grid, so covers are small, optima are
  many and exact rationals stay short.
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


def _grid_time(rng: random.Random, timeout: Fraction) -> Fraction:
    if rng.random() < 0.5:
        return Fraction(rng.randint(0, int(timeout)))
    return Fraction(rng.randint(0, int(timeout) * 1000), 1000)


def _grid_run(rng, sid, iid, kind, timeout, optimum) -> RunRecord:
    roll = rng.random()
    if roll < 0.4:
        objective = optimum if kind.is_optimization else None
        return RunRecord(sid, iid, Status.COMPLETE, _grid_time(rng, timeout), objective)
    if roll < 0.65 and kind.is_optimization:
        delta = rng.randint(0, 5)
        objective = optimum + delta if kind is ProblemKind.MINIMIZE else optimum - delta
        return RunRecord(sid, iid, Status.INCOMPLETE, _grid_time(rng, timeout), objective)
    return RunRecord(sid, iid, Status.UNSOLVED, timeout)


def random_grid(rng: random.Random, n_solvers: int, n_instances: int) -> Dataset:
    """Independent random runs; solver s00 is always a participant.

    Instance ``i`` for ``i < n_solvers`` is solved by solver ``i`` alone, so the
    minimum cover is every solver for every seed and the size of the
    subset and coalition searches does not change with the seed.
    """
    flags = {f"s{j:02d}": j == 0 or rng.random() < 0.7 for j in range(n_solvers)}
    instances = []
    runs = []
    for i in range(n_instances):
        iid = f"i{i:03d}"
        kind = rng.choice(KINDS)
        timeout = Fraction(rng.randint(5, 60))
        instances.append(InstanceMeta(iid, kind, timeout))
        optimum = Fraction(rng.randint(-10, 10))
        here: list[RunRecord] = []
        for j, sid in enumerate(flags):
            if i < n_solvers:
                if i == j:
                    objective = optimum if kind.is_optimization else None
                    run = RunRecord(sid, iid, Status.COMPLETE, _grid_time(rng, timeout), objective)
                else:
                    run = RunRecord(sid, iid, Status.UNSOLVED, timeout)
            elif here and rng.random() < 0.15:
                twin = rng.choice(here)
                run = RunRecord(sid, iid, twin.status, twin.time, twin.objective)
            else:
                run = _grid_run(rng, sid, iid, kind, timeout, optimum)
            here.append(run)
        runs.extend(here)
    return build_dataset(instances, flags, runs)


FAMILY_TIMEOUT = Fraction(1200)
_STEP = 10


def _slower(rng, sid, iid, kind, best_time, optimum) -> RunRecord:
    """A run that loses to the family specialist: unsolved half the time."""
    if rng.random() < 0.5:
        return RunRecord(sid, iid, Status.UNSOLVED, FAMILY_TIMEOUT)
    time = best_time + _STEP * rng.randint(1, 60)
    if time >= FAMILY_TIMEOUT:
        return RunRecord(sid, iid, Status.UNSOLVED, FAMILY_TIMEOUT)
    if kind.is_optimization and rng.random() < 0.3:
        delta = rng.randint(1, 5)
        objective = optimum + delta if kind is ProblemKind.MINIMIZE else optimum - delta
        return RunRecord(sid, iid, Status.INCOMPLETE, time, objective)
    return RunRecord(sid, iid, Status.COMPLETE, time, optimum if kind.is_optimization else None)


def family_ties(
    rng: random.Random, family_sizes: tuple[int, ...], n_generalists: int, n_forced: int
) -> Dataset:
    """Specialist/near-clone pairs per family plus generalists.

    Specialists and clones are participants, and so is every other generalist.
    Both solve only their own family; missing runs are filled in as unsolved.
    In the first ``n_forced`` families the clone loses to its specialist on
    one instance, so every minimum cover needs that specialist; elsewhere the
    clone ties everywhere and either one will do. Every seed thus gives a
    cover of one solver per family with ``2 ** (families - n_forced)`` optima.
    Families differ in size so that cover members are not symmetric players.
    """
    pairs = [(f"spec{f}", f"clone{f}") for f in range(len(family_sizes))]
    generalists = [f"gen{g:02d}" for g in range(n_generalists)]
    flags = {sid: True for pair in pairs for sid in pair}
    flags.update({sid: g % 2 == 0 for g, sid in enumerate(generalists)})

    instances = []
    runs = []
    for f, ((spec, clone), size) in enumerate(zip(pairs, family_sizes)):
        deviant = rng.randrange(size) if f < n_forced else -1
        for k in range(size):
            iid = f"f{f}-i{k:03d}"
            kind = rng.choice(KINDS)
            instances.append(InstanceMeta(iid, kind, FAMILY_TIMEOUT))
            optimum = Fraction(rng.randint(-100, 100)) if kind.is_optimization else None
            best = Fraction(_STEP * rng.randint(1, 60))
            top = RunRecord(spec, iid, Status.COMPLETE, best, optimum)
            runs.append(top)
            if k == deviant:
                runs.append(_slower(rng, clone, iid, kind, best, optimum))
            else:
                runs.append(RunRecord(clone, iid, top.status, top.time, top.objective))
            for sid in generalists:
                runs.append(_slower(rng, sid, iid, kind, best, optimum))
    return build_dataset(instances, flags, runs)


def relabel(ds: Dataset, rng: random.Random) -> Dataset:
    """The same runs with solver ids and instance ids each shuffled among themselves."""
    solvers = list(ds.solvers)
    instances = list(ds.instances)
    solver_ids = dict(zip(solvers, rng.sample(solvers, len(solvers))))
    instance_ids = dict(zip(instances, rng.sample(instances, len(instances))))
    return build_dataset(
        [InstanceMeta(instance_ids[m.instance_id], m.kind, m.timeout) for m in ds.instances.values()],
        {solver_ids[sid]: flag for sid, flag in ds.solvers.items()},
        [
            RunRecord(solver_ids[r.solver_id], instance_ids[r.instance_id], r.status, r.time, r.objective)
            for r in ds.runs.values()
        ],
    )
