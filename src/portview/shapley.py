"""Coalitional attribution of portfolio performance to individual solvers.

The value of a coalition is its performance ratio against the fixed baseline
(the empty coalition is worth 0). Three report modes:

* ``exact``: the classic coalition-weighted average of marginal contributions,
  computed over all subsets in exact rational arithmetic. Values sum to the
  full portfolio's performance.
* ``sum``: the plain, unweighted sum of marginal contributions over all
  subsets. Same ordering of solvers, different scale; offered because some
  published analyses total the marginals without the coalitional weights.
* ``sampled``: Monte-Carlo average of marginals over uniformly random
  permutations, for portfolios too large to enumerate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, inf
from typing import Iterable

from .portfolio import SubsetScorer
from .runstore import DataError, Dataset

# Exact mode runs only when its estimated time (``_exact_seconds``) is within
# this many seconds; larger portfolios need ``sampled`` mode.
EXACT_BUDGET_S = 60.0


def _exact_seconds(n: int, m: int, denominator: int) -> float:
    """Estimated seconds of ``shapley_exact``'s coalition loop, from its size alone.

    Calibrated on a 2-core x86 machine with CPython 3.11: each of the 2^n
    coalitions costs about 5 us per player, and summing the exact values, whose
    denominators grow with every coalition added, took 52.8 s for 12 players
    over 100 instances with 2,384-bit scores (the bits of ``m * denominator``).
    That sum grows x14 per two more players and with the square of the bits.
    """
    bits = (m * denominator).bit_length()
    try:
        return 5e-6 * n * 2.0**n + 52.8 * 14 ** ((n - 12) / 2) * (bits / 2384) ** 2
    except OverflowError:
        return inf


class ShapleyMode(Enum):
    EXACT = "exact"
    SUM = "sum"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class AttributionReport:
    """Per-solver contribution values for one portfolio/baseline pair."""

    values: dict[str, Fraction] | dict[str, float]
    mode: ShapleyMode
    portfolio: tuple[str, ...]
    baseline: tuple[str, ...]
    sample_count: int | None = None


def _coalition_weights(n: int) -> list[Fraction]:
    """weights[s] for a coalition of size s joined by one more player."""
    total = factorial(n)
    return [Fraction(factorial(s) * factorial(n - s - 1), total) for s in range(n)]


def shapley_exact(
    ds: Dataset,
    portfolio: Iterable[str],
    baseline: Iterable[str],
    mode: ShapleyMode = ShapleyMode.EXACT,
) -> AttributionReport:
    """Exact attribution over all 2^n coalitions, if estimated to fit ``EXACT_BUDGET_S``.

    Player a gains +w(|S|-1)*v(S) from each coalition S containing it and
    -w(|S|)*v(S) from each non-empty S without it (w(n) = 0; with w = 1 this
    is the unweighted sum mode). Grouping coalitions by size s, with
    G_s = sum of v(S) over |S| = s and H_s[a] = the same sum over the S that
    contain a, gives

        phi_a = sum over s of (w(s-1) + w(s)) * H_s[a] - w(s) * G_s,

    so each coalition value is built once, from the scorer's integer total,
    and only added into its size's sums; the weights are applied n^2 times at
    the end. The sums' denominators grow with every coalition, so the time
    grows about x14 per two players; the estimate is checked before any
    coalition is evaluated, and a portfolio over budget raises DataError.
    """
    if mode is ShapleyMode.SAMPLED:
        raise DataError("shapley_exact: use shapley_sampled for sampled mode")
    scorer = SubsetScorer(ds, portfolio, baseline)
    players = scorer.space
    n = len(players)
    m = len(scorer.instances)
    estimate = _exact_seconds(n, m, scorer.denominator)
    if estimate > EXACT_BUDGET_S:
        raise DataError(
            f"shapley_exact: {n} solvers over {m} instances would take an estimated "
            f"{estimate:.3g} s, over the {EXACT_BUDGET_S:g} s exact-mode guard; "
            "use --mode sampled"
        )

    weights = _coalition_weights(n) if mode is ShapleyMode.EXACT else [Fraction(1)] * n
    weights.append(Fraction(0))  # nobody joins the grand coalition
    by_size = [Fraction(0)] * (n + 1)
    by_size_member = [[Fraction(0)] * n for _ in range(n + 1)]
    for mask in range(1, 1 << n):
        value = scorer.value_from_numerator(scorer.evaluate_mask(mask))
        size = bin(mask).count("1")
        by_size[size] += value
        member = by_size_member[size]
        for a in range(n):
            if mask >> a & 1:
                member[a] += value
    phi = [
        sum(
            (
                (weights[s - 1] + weights[s]) * by_size_member[s][a] - weights[s] * by_size[s]
                for s in range(1, n + 1)
            ),
            Fraction(0),
        )
        for a in range(n)
    ]
    return AttributionReport(
        {players[a]: phi[a] for a in range(n)}, mode, players, scorer.baseline
    )


def shapley_sampled(
    ds: Dataset,
    portfolio: Iterable[str],
    baseline: Iterable[str],
    samples: int,
    rng_seed: int = 0,
) -> AttributionReport:
    """Permutation-sampling estimate of the weighted attribution.

    Each sampled permutation credits every solver with its marginal value at
    its position; reported values are the sample means. Deterministic for a
    fixed seed. Values are floats (the estimator is approximate anyway).
    """
    if samples < 1:
        raise DataError("shapley_sampled: samples must be at least 1")
    scorer = SubsetScorer(ds, portfolio, baseline)
    players = scorer.space
    n = len(players)
    if n == 0:
        return AttributionReport({}, ShapleyMode.SAMPLED, players, scorer.baseline, samples)

    # int / int is correctly rounded, so each entry equals float(score)
    rows = [[x / scorer.denominator for x in row] for row in scorer.rows]
    m = len(scorer.instances)
    rng = random.Random(rng_seed)
    acc = [0.0] * n
    order = list(range(n))
    for _ in range(samples):
        rng.shuffle(order)
        current = [0.0] * m
        numerator = 0.0
        previous = 0.0
        for a in order:
            row = rows[a]
            for i in range(m):
                if row[i] > current[i]:
                    numerator += row[i] - current[i]
                    current[i] = row[i]
            value = numerator / (m - numerator)
            acc[a] += value - previous
            previous = value
    values = {players[a]: acc[a] / samples for a in range(n)}
    return AttributionReport(values, ShapleyMode.SAMPLED, players, scorer.baseline, samples)
