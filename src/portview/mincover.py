"""Minimum portfolios with full-oracle performance, as exact set cover.

Each solver covers the instances on which it ties the per-instance optimum of
the whole portfolio (same quality, same objective, time within a tolerance of
the fastest). Any set of solvers covering every such instance reproduces the
oracle's virtual best run everywhere, so the smallest covers are exactly the
minimum oracle-equivalent portfolios. The search is complete branch and bound
over bitmasks with a greedy upper bound and an element-disjoint lower bound,
and enumerates every optimal cover up to a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .pairscore import quality_key, run_comparable
from .portfolio import vbs_run
from .runstore import DataError, Dataset, Status, known_solvers


@dataclass(frozen=True)
class CoverageMap:
    """Which instances each solver covers, and the coverable universe.

    ``unsolvable`` lists instances no solver in the portfolio solved; they are
    excluded from the universe (no portfolio can cover them).
    """

    best_sets: dict[str, frozenset[str]]
    universe: frozenset[str]
    unsolvable: frozenset[str] = frozenset()


def build_coverage(
    ds: Dataset,
    solvers: Iterable[str] | None = None,
    epsilon: Fraction = Fraction(0),
) -> CoverageMap:
    """Map each solver to the instances where it ties the portfolio optimum.

    ``epsilon`` relaxes the time tie (seconds): a run counts as best if its
    quality and objective match the optimum exactly and its time is within
    ``epsilon`` of the fastest best-quality run.
    """
    members = known_solvers(ds, solvers, "build_coverage") if solvers is not None else ds.solver_ids
    if epsilon < 0:
        raise DataError("build_coverage: epsilon must be non-negative")

    best_sets: dict[str, set[str]] = {sid: set() for sid in members}
    universe: set[str] = set()
    unsolvable: set[str] = set()
    for iid in ds.instance_ids:
        best = vbs_run(ds, members, iid)
        if best.status is Status.UNSOLVED:
            unsolvable.add(iid)
            continue
        universe.add(iid)
        best_key = quality_key(best)
        for sid in members:
            comp = run_comparable(ds, sid, iid)
            if quality_key(comp) == best_key and comp.time - best.time <= epsilon:
                best_sets[sid].add(iid)
    return CoverageMap(
        {sid: frozenset(ids) for sid, ids in best_sets.items()},
        frozenset(universe),
        frozenset(unsolvable),
    )


@dataclass(frozen=True)
class CoverSolution:
    """All minimum covers found; ``is_unique`` only when the optimum is alone."""

    portfolios: tuple[tuple[str, ...], ...]
    size: int
    is_unique: bool
    cap_reached: bool = False


def _greedy_cover_size(masks: list[int], full: int) -> int:
    covered = 0
    picks = 0
    while covered != full:
        gain, best = 0, -1
        for idx, m in enumerate(masks):
            g = bin(m & ~covered).count("1")
            if g > gain:
                gain, best = g, idx
        covered |= masks[best]
        picks += 1
    return picks


def _disjoint_lower_bound(uncovered: int, masks: list[int]) -> int:
    """Count pairwise-independent uncovered elements; each needs its own set."""
    bound = 0
    rem = uncovered
    while rem:
        element = rem & -rem
        hit = element
        for m in masks:
            if m & element:
                hit |= m
        rem &= ~hit
        bound += 1
    return bound


def min_cover(cov: CoverageMap, cap: int = 1000) -> CoverSolution:
    """Enumerate every minimum-cardinality cover of the universe.

    Deterministic: solvers are searched in sorted order and the optima are
    reported sorted. When more optima exist than ``cap``, enumeration stops
    and ``cap_reached`` is set (uniqueness is then unknown and reported False).
    """
    if cap < 1:
        raise DataError("min_cover: cap must be at least 1")
    universe = sorted(cov.universe)
    if not universe:
        raise DataError("min_cover: empty universe")
    index = {iid: pos for pos, iid in enumerate(universe)}
    full = (1 << len(universe)) - 1

    candidates = []
    for sid in sorted(cov.best_sets):
        mask = 0
        for iid in cov.best_sets[sid]:
            pos = index.get(iid)
            if pos is not None:
                mask |= 1 << pos
        if mask:
            candidates.append((sid, mask))
    union_all = 0
    for _, mask in candidates:
        union_all |= mask
    if union_all != full:
        raise DataError("min_cover: universe is not coverable by the given sets")

    names = [sid for sid, _ in candidates]
    masks = [mask for _, mask in candidates]
    suffix_union = [0] * (len(masks) + 1)
    for idx in range(len(masks) - 1, -1, -1):
        suffix_union[idx] = suffix_union[idx + 1] | masks[idx]

    best_size = _greedy_cover_size(masks, full)
    solutions: list[tuple[int, ...]] = []
    cap_reached = False

    def dfs(idx: int, chosen: tuple[int, ...], covered: int) -> None:
        nonlocal best_size, solutions, cap_reached
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                solutions = [chosen]
                cap_reached = False
            elif len(chosen) == best_size:
                if len(solutions) < cap:
                    solutions.append(chosen)
                else:
                    cap_reached = True
            return
        if idx == len(masks):
            return
        if covered | suffix_union[idx] != full:
            return
        remaining = masks[idx:]
        bound = _disjoint_lower_bound(full & ~covered, remaining)
        if len(chosen) + bound > best_size:
            return
        # a minimum cover never includes a set adding nothing
        if masks[idx] & ~covered:
            dfs(idx + 1, chosen + (idx,), covered | masks[idx])
        dfs(idx + 1, chosen, covered)

    dfs(0, (), 0)
    portfolios = sorted(tuple(names[i] for i in sol) for sol in solutions)
    return CoverSolution(
        tuple(portfolios),
        best_size,
        is_unique=len(portfolios) == 1 and not cap_reached,
        cap_reached=cap_reached,
    )
