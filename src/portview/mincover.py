"""Minimum portfolios with full-oracle performance, as exact set cover.

Each solver covers the instances on which it ties the per-instance optimum of
the whole portfolio (the best quality group, time within a tolerance of the
fastest in it). Any set of solvers covering every such instance reproduces the
oracle's virtual best run everywhere, so the smallest covers are exactly the
minimum oracle-equivalent portfolios. A complete branch and bound over bitmasks
branches on the uncovered instance with the fewest coverers, prunes on an
element-disjoint lower bound, and enumerates the optimal covers up to a cap.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Iterable, NamedTuple

from .pairscore import best_group, time_ticks
from .render import log
from .runstore import DataError, Dataset, known_solvers

# Search nodes; 36 s at the slowest rate measured, 97 thousand per CPU second, and 7 s at the
# fastest, 473 thousand (2-core x86, CPython 3.11, tie-heavy data); within shapley.EXACT_BUDGET_S.
NODE_BUDGET = 3_500_000
_PROGRESS_EVERY = 1 << 12


class CoverageMap(NamedTuple):
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

    A run counts as best if it is in the portfolio's ``best_group`` on the
    instance (a proven-complete run is, whatever objective it recorded) and its
    time is within ``epsilon`` seconds of the fastest run there. The test is
    cross-multiplied over the group's ``time_ticks``, ``(T - F) * q <= p *
    scale`` for ``epsilon = p / q``, so it builds and compares no ``Fraction``.
    """
    members = known_solvers(ds, solvers, "build_coverage") if solvers is not None else ds.solver_ids
    if epsilon.numerator < 0:
        raise DataError("build_coverage: epsilon must be non-negative")

    best_sets: dict[str, set[str]] = {sid: set() for sid in members}
    universe: set[str] = set()
    unsolvable: set[str] = set()
    for iid in ds.instance_ids:
        group = best_group(ds, members, iid)
        if not group:
            unsolvable.add(iid)
            continue
        universe.add(iid)
        ticks, scale = time_ticks(run.time for _, run in group)
        fastest = min(ticks)
        slack = epsilon.numerator * scale
        for (sid, _), t in zip(group, ticks):
            if (t - fastest) * epsilon.denominator <= slack:
                best_sets[sid].add(iid)
    return CoverageMap(
        {sid: frozenset(ids) for sid, ids in best_sets.items()},
        frozenset(universe),
        frozenset(unsolvable),
    )


class CoverSolution(NamedTuple):
    """All minimum covers found; ``is_unique`` only when the optimum is alone."""

    portfolios: tuple[tuple[str, ...], ...]
    size: int
    is_unique: bool
    cap_reached: bool = False


def min_cover(cov: CoverageMap, cap: int = 1000) -> CoverSolution:
    """Enumerate every minimum-cardinality cover of the universe.

    Each node branches on the uncovered instance with the fewest allowed
    coverers, s_1 ... s_r in solver order: branch i takes s_i and excludes
    s_1 ... s_(i-1), so every cover is reached once (Knuth's Algorithm X).
    Deterministic; the optima are reported sorted. When more optima exist than
    ``cap``, only a smaller cover could change the answer, so enumeration stops
    and ``cap_reached`` is set (uniqueness is then unknown and reported False).
    """
    if cap < 1:
        raise DataError("min_cover: cap must be at least 1")
    universe = sorted(cov.universe)
    if not universe:
        raise DataError("min_cover: empty universe")
    index = {iid: pos for pos, iid in enumerate(universe)}

    names: list[str] = []
    masks: list[int] = []
    # coverers[e]: the candidates covering instance e, one bit per candidate
    coverers = [0] * len(universe)
    for sid in sorted(cov.best_sets):
        positions = [index[iid] for iid in cov.best_sets[sid] if iid in index]
        if positions:
            for pos in positions:
                coverers[pos] |= 1 << len(names)
            names.append(sid)
            masks.append(sum(1 << pos for pos in positions))
    if not all(coverers):
        raise DataError("min_cover: universe is not coverable by the given sets")

    best_size = len(names)
    solutions: list[tuple[int, ...]] = []
    cap_reached = False
    nodes, started = 0, time.perf_counter()

    def dfs(chosen: tuple[int, ...], uncovered: int, allowed: int) -> None:
        nonlocal best_size, solutions, cap_reached, nodes
        if nodes > NODE_BUDGET:
            raise DataError(
                f"min_cover: work budget exhausted after {nodes} nodes, with a cover of "
                f"{best_size} solvers found; use fewer solvers"
            )
        nodes += 1
        if nodes % _PROGRESS_EVERY == 0:
            rate = nodes / (time.perf_counter() - started)
            log("min_cover: %d nodes (best size %d, %.0f nodes/s)", nodes, best_size, rate)
        if not uncovered:
            # the bound kept this cover from exceeding best_size
            if len(chosen) < best_size:
                best_size, solutions, cap_reached = len(chosen), [chosen], False
            elif len(solutions) < cap:
                solutions.append(chosen)
            else:
                cap_reached = True
            return
        # one ascending pass keeps the first instance with the fewest allowed coverers and
        # counts instances that pairwise share no allowed set (each needs its own); it prunes
        # covers too large (past the cap: not smaller)
        limit = best_size - cap_reached - len(chosen)
        fewest, least, bound, hit, rest = 0, len(names) + 1, 0, 0, uncovered
        while rest:
            low = rest & -rest
            rest ^= low
            sets = coverers[low.bit_length() - 1] & allowed
            count = sets.bit_count()
            if count < least:
                fewest, least = sets, count
            if not hit & low:
                bound += 1
                if bound > limit:
                    return
                while sets:
                    first = sets & -sets
                    hit |= masks[first.bit_length() - 1]
                    sets ^= first
        while fewest:
            low = fewest & -fewest
            fewest ^= low
            allowed ^= low
            j = low.bit_length() - 1
            dfs(chosen + (j,), uncovered & ~masks[j], allowed)

    dfs((), (1 << len(universe)) - 1, (1 << len(names)) - 1)
    portfolios = sorted(tuple(names[i] for i in sorted(sol)) for sol in solutions)
    is_unique = len(portfolios) == 1 and not cap_reached
    return CoverSolution(tuple(portfolios), best_size, is_unique, cap_reached)
