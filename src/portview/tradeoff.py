"""Best subset per portfolio size, by exhaustive enumeration.

For each size k, every k-subset of the search space is scored against the
baseline and the best kept, giving the trade-off curve between portfolio size
and achievable performance. Enumeration walks sizes ascending and subsets in
combinatorial order; ties go to the lexicographically smallest solver list.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .portfolio import PerfRatio, SubsetScorer
from .runstore import DataError, Dataset, known_solvers

log = logging.getLogger(__name__)

MAX_SPACE = 25
_PROGRESS_EVERY = 1 << 16


@dataclass(frozen=True)
class TradeoffEntry:
    k: int
    subset: tuple[str, ...]
    ratio: PerfRatio

    @property
    def value(self) -> Fraction:
        return self.ratio.value


@dataclass(frozen=True)
class TradeoffCurve:
    entries: tuple[TradeoffEntry, ...]
    search_space: tuple[str, ...]
    baseline: tuple[str, ...]


def best_subsets(ds: Dataset, space: Iterable[str], baseline: Iterable[str]) -> TradeoffCurve:
    """Exhaustively find the best subset of every size k in [1, |space|].

    Subsets are compared by their integer total score from
    ``SubsetScorer.evaluate_mask`` (all totals share one denominator, so the
    integer order is the ratio order); only the winner of each size becomes a
    ``PerfRatio``. A later subset replaces the incumbent only when strictly
    better, which keeps the first (lexicographically smallest) optimum.
    """
    names = known_solvers(ds, space, "scorer space")
    n = len(names)
    if n == 0:
        raise DataError("best_subsets: empty search space")
    if n > MAX_SPACE:
        raise DataError(
            f"best_subsets: search space of {n} solvers exceeds the "
            f"{MAX_SPACE}-solver enumeration guard"
        )
    scorer = SubsetScorer(ds, names, baseline)

    entries = []
    evaluated = 0
    started = time.perf_counter()
    for k in range(1, n + 1):
        best_mask = -1
        best_num = -1
        for combo in combinations(range(n), k):
            mask = 0
            for idx in combo:
                mask |= 1 << idx
            num = scorer.evaluate_mask(mask)
            evaluated += 1
            if evaluated % _PROGRESS_EVERY == 0:
                rate = evaluated / (time.perf_counter() - started)
                log.info(
                    "best_subsets: %d subsets evaluated (size %d, %.0f subsets/s)",
                    evaluated, k, rate,
                )
            if num > best_num:
                best_num = num
                best_mask = mask
        subset = tuple(names[idx] for idx in range(n) if best_mask >> idx & 1)
        entries.append(TradeoffEntry(k, subset, scorer.ratio_from_numerator(best_num)))
    return TradeoffCurve(tuple(entries), names, scorer.baseline)


def thresholds(
    curve: TradeoffCurve, levels: Sequence[Fraction]
) -> dict[Fraction, int]:
    """Smallest k whose performance reaches each level; unreachable levels omitted."""
    if not curve.entries:
        raise DataError("thresholds: empty curve")
    if list(levels) != sorted(levels):
        raise DataError("thresholds: levels must be sorted ascending")
    out: dict[Fraction, int] = {}
    for level in levels:
        for entry in curve.entries:
            if entry.value >= level:
                out[level] = entry.k
                break
    return out
