"""Best subset per portfolio size, by exact branch and bound.

For each size k, the k-subset of the search space with the largest total
score against the baseline is kept, giving the trade-off curve between
portfolio size and achievable performance; among equal totals the
lexicographically smallest solver list wins. A subset's total
N(S) = sum over instances of max over members of the member's score is a
monotone submodular facility-location objective (Cornuejols, Fisher &
Nemhauser 1977), so one depth-first search per size, over subsets in
combinatorial order, can drop every branch whose upper bound cannot beat the
incumbent: a union bound (each instance's best score among the remaining
candidates) and a gain bound (the current total plus the largest marginal
gains, Nemhauser, Wolsey & Fisher 1978). Each size starts from the previous
size's best subset plus its best single addition. The search is exact; it stops
with a ``DataError`` once it has used ``WORK_BUDGET`` work units: scoring one
candidate costs one unit per 64-bit word of each shared instance's score.
"""

from __future__ import annotations

import time
from fractions import Fraction
from heapq import heappush, heapreplace
from itertools import accumulate, compress
from operator import gt
from typing import Iterable, NamedTuple, Sequence

from .portfolio import PerfRatio, SubsetScorer
from .render import log
from .runstore import DataError, Dataset, known_solvers

# About the 60 s of shapley.EXACT_BUDGET_S. Calibrated on a 2-core x86 machine
# with CPython 3.11, in work units per CPU second: 274-290 million on a whole
# 30-solver x 100-instance space (3,800-4,000 nodes/s), and 305-307 million on
# the 15-solver cover of 16 solvers x 1,000 instances (313 nodes/s), whose
# scores have ~12,800 bits against ~3,700.
WORK_BUDGET = 16_000_000_000
_PROGRESS_EVERY = 1 << 12


class TradeoffEntry(NamedTuple):
    k: int
    subset: tuple[str, ...]
    ratio: PerfRatio

    @property
    def value(self) -> Fraction:
        return self.ratio.value


class TradeoffCurve(NamedTuple):
    entries: tuple[TradeoffEntry, ...]
    search_space: tuple[str, ...]
    baseline: tuple[str, ...]


def best_subsets(ds: Dataset, space: Iterable[str], baseline: Iterable[str]) -> TradeoffCurve:
    """Find the best subset of every size k in [1, |space|] by branch and bound.

    Subsets are compared by their integer total score over
    ``SubsetScorer.rows`` (all totals share one denominator, so the integer
    order is the ratio order); among equal totals the lexicographically
    smallest solver list wins, as in a scan of every subset in combinatorial
    order. Each size's winner is scored once more through
    ``SubsetScorer.evaluate_mask`` and becomes a ``PerfRatio``. Raises
    ``DataError`` when the search needs more than ``WORK_BUDGET`` work units.
    """
    names = known_solvers(ds, space, "scorer space")
    n = len(names)
    if n == 0:
        raise DataError("best_subsets: empty search space")
    scorer = SubsetScorer(ds, names, baseline)
    search = _Search(scorer.rows)

    entries = []
    for k in range(1, n + 1):
        total, combo = search.best(k)
        scored = scorer.evaluate_mask(sum(1 << idx for idx in combo))
        assert scored == total, (combo, scored, total)
        subset = tuple(names[idx] for idx in combo)
        entries.append(TradeoffEntry(k, subset, scorer.ratio_from_numerator(total)))
    return TradeoffCurve(tuple(entries), names, scorer.baseline)


class _Search:
    """Exact best k-subsets of the integer score rows ``rows[j][i]``.

    An instance on which at most one solver scores above the instance's lowest
    score is private: it adds a fixed amount to every subset that holds that
    solver. Those amounts are folded into ``own``; only the shared instances
    stay in ``rows``, less their lowest score. A non-empty subset S totals
    ``base + sum(own[j] for j in S) + sum over shared i of max(rows[j][i] for j in S)``.
    """

    def __init__(self, rows: list[list[int]]):
        self.n = n = len(rows)
        lows = [min(col) for col in zip(*rows)]
        self.base = sum(lows)
        self.own = [0] * n
        shared = []
        for i, col in enumerate(zip(*rows)):
            above = [j for j, x in enumerate(col) if x > lows[i]]
            if len(above) == 1:
                self.own[above[0]] += col[above[0]] - lows[i]
            elif above:
                shared.append(i)
        self.rows = [[row[i] - lows[i] for i in shared] for row in rows]
        # suffix_max[c][i]: the best shared score on instance i among solvers c..n-1
        self.suffix_max = [[0] * len(shared)]
        for row in reversed(self.rows):
            self.suffix_max.append(list(map(max, row, self.suffix_max[-1])))
        self.suffix_max.reverse()
        # top_own[c][t]: the sum of the t largest own amounts among solvers c..n-1
        self.top_own = [
            list(accumulate(sorted(self.own[c:], reverse=True), initial=0)) for c in range(n)
        ]
        # gains on the empty subset: every solver's own total
        self.alone = [own + sum(row) for own, row in zip(self.own, self.rows)]
        # scoring one candidate against a subset costs one pass over the shared
        # instances, and each integer score there costs in proportion to its words
        words = max(self.suffix_max[0], default=0).bit_length() // 64 + 1
        self.width = max(1, len(shared)) * words
        self.nodes = self.work = 0
        self.started = time.perf_counter()
        self.k = 0
        self.value, self.subset = 0, ()

    def _row(self, combo: tuple[int, ...]) -> list[int]:
        if not combo:
            return [0] * len(self.suffix_max[0])
        return list(map(max, zip(*(self.rows[j] for j in combo))))

    def extend(self, combo: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """(total, subset) of ``combo`` plus its best single addition, smallest index on ties."""
        cur = self._row(combo)
        total = self.base + sum(self.own[j] for j in combo) + sum(cur)
        total, add = max(
            (total + self.own[j] + _gain(self.rows[j], cur), -j)
            for j in range(self.n)
            if j not in combo
        )
        return total, tuple(sorted(combo + (-add,)))

    def best(self, k: int) -> tuple[int, tuple[int, ...]]:
        """(total, subset) of the best k-subset; callers go k = 1, 2, ... in order, and the
        incumbent starts as the best (k - 1)-subset plus its best single addition."""
        self.k = k
        self.value, self.subset = self.extend(self.subset)
        self._expand((), self._row(()), self.base, k, self.alone)
        return self.value, self.subset

    def _beaten(self, bound: int, combo: tuple[int, ...], c: int, need: int) -> bool:
        """True when no subset of ``combo``'s branch through ``c`` that totals at most
        ``bound`` can replace the incumbent: the bound is below it, or equal while the
        incumbent precedes the branch's smallest subset, ``combo + (c, .., c + need - 1)``."""
        if bound != self.value:
            return bound < self.value
        return self.subset < combo + tuple(range(c, c + need))

    def _expand(
        self, combo: tuple[int, ...], cur: list[int], total: int, need: int, upper: list[int]
    ) -> None:
        """Search the subsets that add ``need`` solvers after ``combo[-1]`` to ``combo``.

        ``cur`` is ``combo``'s best shared score per instance and ``total`` its
        total. ``upper[p]`` bounds the gain of candidate ``start + p`` from
        above: it is the candidate's gain on a smaller subset, by
        submodularity, and its exact gain at the root.
        """
        if self.work > WORK_BUDGET:
            raise DataError(
                f"best_subsets: work budget exhausted after {self.nodes} nodes, at size "
                f"{self.k} of {self.n}; use a smaller search space"
            )
        self.nodes += 1
        if self.nodes % _PROGRESS_EVERY == 0:
            rate = self.nodes / (time.perf_counter() - self.started)
            log("best_subsets: %d nodes (size %d, %.0f nodes/s)", self.nodes, self.k, rate)
        n = self.n
        start = combo[-1] + 1 if combo else 0
        if need == 1:
            # a leaf's gain is computed only when its inherited bound can still win
            for j, bound in enumerate(upper, start):
                if self._beaten(total + bound, combo, j, 1):
                    continue
                self.work += self.width
                value = total + self.own[j] + _gain(self.rows[j], cur)
                if not self._beaten(value, combo, j, 1):
                    self.value, self.subset = value, combo + (j,)
            return
        self.work += (n - start) * self.width
        gains = upper if not combo else [
            self.own[j] + _gain(self.rows[j], cur) for j in range(start, n)
        ]
        later = _top_after(gains, need - 1)
        for c in range(start, n - need + 1):
            p = c - start
            if self._beaten(total + gains[p] + later[p], combo, c, need):
                continue
            union = total + self.top_own[c][need] + _gain(self.suffix_max[c], cur)
            if self._beaten(union, combo, c, need):
                break  # the union bound cannot grow with c
            if c == n - need:
                # one subset left, holding every candidate: the union bound is its total
                self.value, self.subset = union, combo + tuple(range(c, n))
                return
            self._expand(
                combo + (c,), list(map(max, cur, self.rows[c])), total + gains[p], need - 1,
                gains[p + 1:],
            )


def _gain(row: list[int], cur: list[int]) -> int:
    """``sum(map(max, row, cur)) - sum(cur)``, with no ``max`` call per instance."""
    above = list(map(gt, row, cur))
    return sum(compress(row, above)) - sum(compress(cur, above))


def _top_after(values: list[int], t: int) -> list[int]:
    """out[p] = the sum of the t largest of ``values[p + 1:]`` (of all, if fewer)."""
    out = [0] * len(values)
    heap: list[int] = []
    acc = 0
    for p in range(len(values) - 1, 0, -1):
        value = values[p]
        if len(heap) < t:
            heappush(heap, value)
            acc += value
        elif value > heap[0]:
            acc += value - heapreplace(heap, value)
        out[p - 1] = acc
    return out


def thresholds(
    curve: TradeoffCurve, levels: Sequence[Fraction]
) -> dict[Fraction, int]:
    """Smallest k whose performance reaches each level; unreachable levels omitted.

    The levels must be strictly ascending: the result is keyed by level, so a
    repeated one would give one key for two of the caller's rows."""
    if not curve.entries:
        raise DataError("thresholds: empty curve")
    if list(levels) != sorted(set(levels)):
        raise DataError("thresholds: levels must be strictly ascending")
    out: dict[Fraction, int] = {}
    for level in levels:
        for entry in curve.entries:
            if entry.value >= level:
                out[level] = entry.k
                break
    return out
